//! Untrusted user authentication (§6.2, Figures 8–10).
//!
//! HiStar authenticates users without any highly-trusted process.  Four
//! entities cooperate: a *login client* (sshd, the web server, ...), a
//! *directory service* mapping user names to per-user authentication
//! services, the *user's own authentication service* (three gates: setup,
//! check, grant), and a *logging service*.  In the paper the password
//! check runs tainted in a password category `pi_r` allocated by login, so
//! even a malicious authentication service learns at most one bit about
//! the password: whether it was correct.
//!
//! This module reproduces the directory, the logging service, the retry
//! count and the grant step.  [`AuthSystem::login`] is the one place a
//! login is decided, and each user's service process is the one holder of
//! that user's privilege once the user has logged in: the service process
//! is spawned at the user's first login owning `ur`/`uw`, the account
//! creator (init) renounces them at that moment, and every grant comes
//! from the service through a grant gate.  The password comparison itself
//! is library code, not a tainted gate call: nothing in the kernel checks
//! beneath it yet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;

use histar_unix::gatecall::{drop_categories, grant_categories};
use histar_unix::process::Pid;
use histar_unix::users::User;
use histar_unix::{UnixEnv, UnixError};

/// Result alias for authentication operations.
pub type Result<T> = core::result::Result<T, UnixError>;

/// The append-only logging service (58 lines of code in the paper).
#[derive(Clone, Debug, Default)]
pub struct LogService {
    entries: Vec<String>,
}

impl LogService {
    /// Creates an empty log.
    pub fn new() -> LogService {
        LogService::default()
    }

    /// Appends an entry (the log is append-only by construction).
    pub fn append(&mut self, entry: &str) {
        self.entries.push(entry.to_string());
    }

    /// All entries, oldest first.
    pub fn entries(&self) -> &[String] {
        &self.entries
    }
}

/// One user's authentication service: password hash, retry accounting and,
/// once the user has logged in, the process that holds the user's
/// privilege.
#[derive(Clone)]
pub struct AuthService {
    /// The user whose categories this service grants.
    pub user: User,
    /// Unsalted FNV-1a hash of the user's password (never the password
    /// itself).
    password_hash: u64,
    /// Remaining password attempts before the service refuses further
    /// checks (the retry-count segment of Figure 10).
    retries_left: u32,
    /// The service's process, owning the user's `ur`/`uw`: spawned by init
    /// at the user's first successful login, after which init holds
    /// neither.
    process: Option<Pid>,
}

/// Everything but the password hash: a debug print is no place for it.
impl fmt::Debug for AuthService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuthService")
            .field("user", &self.user)
            .field("retries_left", &self.retries_left)
            .field("process", &self.process)
            .finish_non_exhaustive()
    }
}

fn hash_password(password: &str) -> u64 {
    // FNV-1a; the point is that the service stores a hash, not the password.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in password.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl AuthService {
    /// Creates an authentication service for a user with the given password.
    pub fn new(user: User, password: &str) -> AuthService {
        AuthService {
            user,
            password_hash: hash_password(password),
            retries_left: 5,
            process: None,
        }
    }

    /// The check step: five wrong passwords in a row lock the account, and
    /// a correct one resets the count.
    fn check(&mut self, password: &str) -> LoginOutcome {
        if self.retries_left == 0 {
            LoginOutcome::TooManyAttempts
        } else if hash_password(password) == self.password_hash {
            self.retries_left = 5;
            LoginOutcome::Granted
        } else {
            self.retries_left -= 1;
            LoginOutcome::BadPassword
        }
    }

    /// The grant step: hands `ur`/`uw` to `login` through a grant gate
    /// that carries nothing else, unless `login` owns both already.  The
    /// user's first grant spawns the service process from init, which owns
    /// the pair as the account's creator and renounces it here.
    fn grant(&mut self, env: &mut UnixEnv, login: Pid) -> Result<()> {
        let pair = [self.user.read_cat, self.user.write_cat];
        let thread = env.process(login)?.thread;
        let label = env.kernel_mut().trap_self_get_label(thread)?;
        if pair.iter().all(|&c| label.owns(c)) {
            return Ok(());
        }
        let service = match self.process {
            Some(pid) => pid,
            None => {
                let init = env.init_pid();
                let name = &self.user.name;
                let pid = env.spawn(init, &format!("/usr/lib/auth/{name}"), Some(name))?;
                self.process = Some(pid);
                drop_categories(env, init, &pair)?;
                pid
            }
        };
        grant_categories(env, service, login, &pair)?;
        env.process_record_mut(login)?.user = Some(self.user.name.clone());
        Ok(())
    }
}

/// Outcome of a login attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoginOutcome {
    /// Authentication succeeded; the login process's thread now owns the
    /// user's `ur`/`uw` categories.
    Granted,
    /// The password was wrong.
    BadPassword,
    /// The retry budget is exhausted.
    TooManyAttempts,
    /// The user is unknown to the directory service.
    UnknownUser,
}

/// The directory service plus the registered per-user services.
#[derive(Debug, Default)]
pub struct AuthSystem {
    services: Vec<AuthService>,
    /// The shared logging service.
    pub log: LogService,
}

impl AuthSystem {
    /// Creates an empty authentication system.
    pub fn new() -> AuthSystem {
        AuthSystem::default()
    }

    /// Registers a user's authentication service (the directory mapping).
    /// Re-registering the same account keeps the service process that
    /// holds its pair: init renounced it at the first login.
    pub fn register(&mut self, mut service: AuthService) {
        let name = &service.user.name;
        if let Some(i) = self.services.iter().position(|s| &s.user.name == name) {
            let old = self.services.remove(i);
            if old.user == service.user {
                service.process = old.process;
            }
        }
        self.services.push(service);
    }

    /// The directory lookup: user name → authentication service.
    pub fn lookup(&self, username: &str) -> Option<&AuthService> {
        self.services.iter().find(|s| s.user.name == username)
    }

    /// The login sequence of Figure 9 on behalf of the process `login`:
    ///
    /// 1. the directory maps `username` to the user's service;
    /// 2. the service checks the password against its hash and its retry
    ///    count;
    /// 3. on success the service's grant gate hands the user's `ur`/`uw`
    ///    ownership to the login process's thread, unless it owns them
    ///    already.
    pub fn login(
        &mut self,
        env: &mut UnixEnv,
        login: Pid,
        username: &str,
        password: &str,
    ) -> Result<LoginOutcome> {
        // A login on behalf of no process is an error, not an attempt.
        env.process(login)?;
        self.log.append(&format!("login attempt: {username}"));
        let Some(service) = self.services.iter_mut().find(|s| s.user.name == username) else {
            return Ok(LoginOutcome::UnknownUser);
        };
        let outcome = service.check(password);
        if outcome == LoginOutcome::Granted {
            service.grant(env, login)?;
            self.log.append(&format!("login success: {username}"));
        } else {
            self.log
                .append(&format!("login failure: {username} ({outcome:?})"));
        }
        Ok(outcome)
    }

    /// Remaining retry budget for a user (test/diagnostic hook).
    pub fn retries_left(&self, username: &str) -> Option<u32> {
        self.lookup(username).map(|s| s.retries_left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_label::{Category, Level};

    fn setup() -> (UnixEnv, AuthSystem, Pid) {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let bob = env.create_user("bob").unwrap();
        let mut auth = AuthSystem::new();
        auth.register(AuthService::new(bob, "hunter2"));
        let sshd = env.spawn(init, "/usr/sbin/sshd", None).unwrap();
        (env, auth, sshd)
    }

    #[test]
    fn successful_login_grants_user_categories() {
        let (mut env, mut auth, sshd) = setup();
        let bob = env.user("bob").unwrap();
        let thread = env.process(sshd).unwrap().thread;
        let before = env.machine().kernel().thread_label(thread).unwrap();
        let before_clearance = env.machine().kernel().thread_clearance(thread).unwrap();
        assert!(!before.owns(bob.read_cat));

        let outcome = auth.login(&mut env, sshd, "bob", "hunter2").unwrap();
        assert_eq!(outcome, LoginOutcome::Granted);
        // The grant gate carries only `ur`/`uw`, so the kernel holds
        // exactly the old label plus those two — nothing of init's, and
        // nothing of the service process's own categories.
        let label = env.machine().kernel().thread_label(thread).unwrap();
        assert_eq!(
            label,
            before
                .with(bob.read_cat, Level::Star)
                .with(bob.write_cat, Level::Star)
        );
        assert_eq!(
            env.machine().kernel().thread_clearance(thread).unwrap(),
            before_clearance
                .with(bob.read_cat, Level::L3)
                .with(bob.write_cat, Level::L3)
        );
        // The login is recorded by the logging service.
        assert!(auth.log.entries().iter().any(|e| e.contains("success")));
        // `/proc` renders from the live process table, so the new user
        // shows at once.
        let status = env
            .read_file_as(sshd, &format!("/proc/{sshd}/status"))
            .unwrap();
        let status = String::from_utf8(status).unwrap();
        assert!(status.contains("user:\tbob\n"), "got: {status}");
        // And the process can now read bob's private files.
        env.mkdir(sshd, "/home", None).unwrap();
        env.write_file_as(sshd, "/home/secret", b"x", Some(bob.private_file_label()))
            .unwrap();
        assert_eq!(env.read_file_as(sshd, "/home/secret").unwrap(), b"x");
    }

    #[test]
    fn first_login_moves_the_pair_from_init_to_the_users_service() {
        let (mut env, mut auth, sshd) = setup();
        let bob = env.user("bob").unwrap();
        let init = env.init_pid();
        let init_thread = env.process(init).unwrap().thread;
        let init_owns = |env: &UnixEnv| {
            let label = env.machine().kernel().thread_label(init_thread).unwrap();
            [bob.read_cat, bob.write_cat].map(|c| label.owns(c))
        };
        assert_eq!(init_owns(&env), [true, true]);
        assert_eq!(
            auth.login(&mut env, sshd, "bob", "hunter2").unwrap(),
            LoginOutcome::Granted
        );
        assert_eq!(init_owns(&env), [false, false]);
        // So init can no longer start a process with bob's privilege ...
        assert!(env.spawn(init, "/bin/sh", Some("bob")).is_err());
        // ... and every later grant comes from bob's service process.
        let other = env.spawn(init, "/usr/sbin/sshd", None).unwrap();
        assert_eq!(
            auth.login(&mut env, other, "bob", "hunter2").unwrap(),
            LoginOutcome::Granted
        );
        let thread = env.process(other).unwrap().thread;
        let label = env.machine().kernel().thread_label(thread).unwrap();
        assert!(label.owns(bob.read_cat) && label.owns(bob.write_cat));
        // A caller that owns the pair already is granted nothing new: the
        // login asks for its label and stops there.
        let before = env.machine().kernel().stats().syscalls;
        assert_eq!(
            auth.login(&mut env, other, "bob", "hunter2").unwrap(),
            LoginOutcome::Granted
        );
        assert_eq!(env.machine().kernel().stats().syscalls - before, 1);
    }

    /// Init dropped the pair at the first login, so the service process
    /// holding it must outlive a re-registration of the same account (a
    /// password change): a fresh service with no process could not get
    /// the pair from anywhere.
    #[test]
    fn re_registering_a_logged_in_user_keeps_its_service() {
        let (mut env, mut auth, sshd) = setup();
        assert_eq!(
            auth.login(&mut env, sshd, "bob", "hunter2").unwrap(),
            LoginOutcome::Granted
        );
        let bob = env.user("bob").unwrap();
        auth.register(AuthService::new(bob, "new password"));
        let other = env.spawn(env.init_pid(), "/usr/sbin/sshd", None).unwrap();
        assert_eq!(
            auth.login(&mut env, other, "bob", "new password").unwrap(),
            LoginOutcome::Granted
        );
    }

    #[test]
    fn wrong_password_grants_nothing_and_burns_a_retry() {
        let (mut env, mut auth, sshd) = setup();
        let bob = env.user("bob").unwrap();
        let thread = env.process(sshd).unwrap().thread;
        let before = env.machine().kernel().thread_label(thread).unwrap();
        assert_eq!(
            auth.login(&mut env, sshd, "bob", "wrong").unwrap(),
            LoginOutcome::BadPassword
        );
        assert!(!env
            .machine()
            .kernel()
            .thread_label(thread)
            .unwrap()
            .owns(bob.read_cat));
        assert_eq!(auth.retries_left("bob"), Some(4));
        let label = env.machine().kernel().thread_label(thread).unwrap();
        assert_eq!(label, before);
    }

    #[test]
    fn retry_budget_is_enforced() {
        let (mut env, mut auth, sshd) = setup();
        for _ in 0..5 {
            assert_eq!(
                auth.login(&mut env, sshd, "bob", "nope").unwrap(),
                LoginOutcome::BadPassword
            );
        }
        assert_eq!(
            auth.login(&mut env, sshd, "bob", "hunter2").unwrap(),
            LoginOutcome::TooManyAttempts
        );
    }

    #[test]
    fn unknown_user_is_reported_by_the_directory() {
        let (mut env, mut auth, sshd) = setup();
        assert_eq!(
            auth.login(&mut env, sshd, "mallory", "x").unwrap(),
            LoginOutcome::UnknownUser
        );
    }

    #[test]
    fn password_is_stored_only_as_a_hash() {
        let bob = User {
            name: "bob".into(),
            read_cat: Category::from_raw(1),
            write_cat: Category::from_raw(2),
        };
        let service = AuthService::new(bob, "hunter2");
        let mut system = AuthSystem::new();
        system.register(service.clone());
        let hash = hash_password("hunter2");
        for debug in [format!("{service:?}"), format!("{system:?}")] {
            assert!(debug.contains("bob"), "got: {debug}");
            assert!(!debug.contains("hunter2"), "got: {debug}");
            for shown in [format!("{hash}"), format!("{hash:x}"), format!("{hash:X}")] {
                assert!(!debug.contains(&shown), "hash printed: {debug}");
            }
        }
    }

    #[test]
    fn two_users_do_not_interfere() {
        let (mut env, mut auth, sshd) = setup();
        let alice = env.create_user("alice").unwrap();
        auth.register(AuthService::new(alice.clone(), "xyzzy"));
        let other = env.spawn(env.init_pid(), "/usr/sbin/sshd", None).unwrap();
        assert_eq!(
            auth.login(&mut env, other, "alice", "xyzzy").unwrap(),
            LoginOutcome::Granted
        );
        assert_eq!(
            auth.login(&mut env, sshd, "bob", "hunter2").unwrap(),
            LoginOutcome::Granted
        );
        // sshd (bob) cannot read alice's private files.
        env.mkdir(other, "/alice", None).unwrap();
        env.write_file_as(
            other,
            "/alice/diary",
            b"dear diary",
            Some(alice.private_file_label()),
        )
        .unwrap();
        assert!(env.read_file_as(sshd, "/alice/diary").is_err());
    }
}
