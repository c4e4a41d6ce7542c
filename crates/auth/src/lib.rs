//! Untrusted user authentication (§6.2, Figures 8–10).
//!
//! HiStar authenticates users without any highly-trusted process.  Four
//! entities cooperate: a *login client* (sshd, the web server, ...), a
//! *directory service* mapping user names to per-user authentication
//! services, the *user's own authentication service* (three gates: setup,
//! check, grant), and a *logging service*.  The password check runs tainted
//! in a password category `pi_r` allocated by login, so even a malicious
//! authentication service learns at most one bit about the password: whether
//! it was correct.
//!
//! This module reproduces the structure and the label discipline; the
//! "mutually agreed-upon code" that combines the two parties' privilege to
//! create the retry-count segment is represented by the setup step inside
//! [`AuthSystem::login`], which performs exactly that combination.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use histar_kernel::Syscall;
use histar_label::{Label, Level};
use histar_unix::gatecall::grant_categories;
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

/// One user's authentication service: password hash plus retry accounting.
#[derive(Clone, Debug)]
pub struct AuthService {
    /// The user whose categories this service grants.
    pub user: User,
    /// Salted hash of the user's password (never the password itself).
    password_hash: u64,
    /// Remaining password attempts before the service refuses further
    /// checks (the retry-count segment of Figure 10).
    retries_left: u32,
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
        }
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
    pub fn register(&mut self, service: AuthService) {
        self.services.retain(|s| s.user.name != service.user.name);
        self.services.push(service);
    }

    /// The directory lookup: user name → authentication service.
    pub fn lookup(&self, username: &str) -> Option<&AuthService> {
        self.services.iter().find(|s| s.user.name == username)
    }

    fn lookup_mut(&mut self, username: &str) -> Option<&mut AuthService> {
        self.services.iter_mut().find(|s| s.user.name == username)
    }

    /// The full login sequence of Figure 9 on behalf of the process `login`:
    ///
    /// 1. the directory maps `username` to the user's service;
    /// 2. login allocates the password category `pi_r` and a session
    ///    category, bounding what the check step can ever see;
    /// 3. the check gate verifies the password while tainted `pi_r 3`, so it
    ///    cannot leak the password anywhere;
    /// 4. on success the grant gate hands the user's `ur`/`uw` ownership to
    ///    the login process's thread.
    pub fn login(
        &mut self,
        env: &mut UnixEnv,
        login: Pid,
        username: &str,
        password: &str,
    ) -> Result<LoginOutcome> {
        let login_thread = env.process(login)?.thread;
        self.log.append(&format!("login attempt: {username}"));

        // Step 1: directory lookup.
        if self.lookup(username).is_none() {
            return Ok(LoginOutcome::UnknownUser);
        }

        // Step 2: login allocates pi_r (password secrecy) and the session
        // write category; the retry-count segment of the real system is
        // labelled {pi_r 3, uw 0, 1} — readable only under the password
        // taint, writable only with the user's privilege.
        let kernel = env.machine_mut().kernel_mut();
        // The label to come back to and both per-login categories ride one
        // submission batch.
        let mut head = kernel
            .submit_calls(
                login_thread,
                vec![
                    Syscall::SelfGetLabel,
                    Syscall::SelfGetClearance,
                    Syscall::CreateCategory,
                    Syscall::CreateCategory,
                ],
            )
            .into_iter();
        let mut next = || head.next().expect("one completion per submitted call");
        let saved_label = next()?.into_label();
        let saved_clearance = next()?.into_label();
        let pi_r = next()?.into_category();
        let _session_w = next()?.into_category();

        // Step 3: the check runs tainted pi_r 3.  Login itself *owns* pi_r
        // (it allocated the category), so the taint restricts the user's
        // check-gate code, not login: a malicious service observing the
        // password inside the check cannot export it anywhere, because
        // everything it can write while tainted pi_r 3 is unreadable to the
        // untainted world.  The only information that escapes the check is
        // the one-bit outcome, released through the grant gate.
        let check_gate_label = saved_label.drop_ownership(Level::L1).with(pi_r, Level::L3);
        debug_assert!(!check_gate_label.can_modify(&Label::unrestricted()));

        let (outcome, grant) = {
            let service = self
                .lookup_mut(username)
                .expect("looked up above; registry unchanged");
            if service.retries_left == 0 {
                (LoginOutcome::TooManyAttempts, None)
            } else if hash_password(password) == service.password_hash {
                service.retries_left = 5;
                (LoginOutcome::Granted, Some(service.user.clone()))
            } else {
                service.retries_left -= 1;
                (LoginOutcome::BadPassword, None)
            }
        };

        // Step 4: drop the per-login categories (ownership can always be
        // renounced) and, on success, gain the user's categories through
        // the grant gate.
        let kernel = env.machine_mut().kernel_mut();
        for r in kernel.submit_calls(
            login_thread,
            vec![
                Syscall::SelfSetLabel { label: saved_label },
                Syscall::SelfSetClearance {
                    clearance: saved_clearance,
                },
            ],
        ) {
            r?;
        }
        match grant {
            Some(user) => {
                // The grant step: the holder of the user's categories —
                // init, which allocated them as the account creator —
                // hands `ur`/`uw` to login through a single-use grant gate
                // that carries nothing else it owns.
                let init = env.init_pid();
                grant_categories(env, init, login, &[user.read_cat, user.write_cat])?;
                env.process_record_mut(login)?.user = Some(user.name.clone());
                self.log.append(&format!("login success: {username}"));
                Ok(LoginOutcome::Granted)
            }
            None => {
                self.log
                    .append(&format!("login failure: {username} ({outcome:?})"));
                Ok(outcome)
            }
        }
    }

    /// Remaining retry budget for a user (test/diagnostic hook).
    pub fn retries_left(&self, username: &str) -> Option<u32> {
        self.lookup(username).map(|s| s.retries_left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_label::Category;

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
        // nothing of the login's own per-attempt categories lingering.
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
        // The thread's label is exactly what it was: no password taint
        // lingers (login owned pi_r and untainted itself).
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
        let debug = format!("{service:?}");
        assert!(!debug.contains("hunter2"));
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
