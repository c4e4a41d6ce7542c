//! Users as pairs of categories (§5.4).
//!
//! A Unix user in HiStar is nothing more than a pair of categories: `ur`
//! grants read access to the user's private data and `uw` grants write
//! access (and stands in for the user's identity when signalling processes).
//! There is no superuser: "root" is just another user whose categories
//! happen to protect system files, and the administrator's only inherent
//! power is write permission on the root container.

use histar_label::{Category, Label, Level};

/// A Unix user: a name plus its read and write categories.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct User {
    /// The account name.
    pub name: String,
    /// Category protecting the secrecy of the user's data (`ur`).
    pub read_cat: Category,
    /// Category protecting the integrity of the user's data (`uw`).
    pub write_cat: Category,
}

impl User {
    /// The label a thread running with this user's full privilege carries:
    /// `{ur ⋆, uw ⋆, 1}`.
    pub fn privilege_label(&self) -> Label {
        Label::builder()
            .own(self.read_cat)
            .own(self.write_cat)
            .build()
    }

    /// The label of the user's private files: `{ur 3, uw 0, 1}`.
    pub fn private_file_label(&self) -> Label {
        Label::builder()
            .set(self.read_cat, Level::L3)
            .set(self.write_cat, Level::L0)
            .build()
    }
}

/// The user registry kept by the Unix library (the directory service of
/// §6.2 maps names to authentication gates; this is the library-side view).
#[derive(Clone, Debug, Default)]
pub struct UserTable {
    users: Vec<User>,
}

impl UserTable {
    /// Creates an empty user table.
    pub fn new() -> UserTable {
        UserTable::default()
    }

    /// Adds a user (replacing any existing user of the same name).
    pub fn add(&mut self, user: User) {
        self.users.retain(|u| u.name != user.name);
        self.users.push(user);
    }

    /// Looks up a user by name.
    pub fn lookup(&self, name: &str) -> Option<&User> {
        self.users.iter().find(|u| u.name == name)
    }

    /// All registered users.
    pub fn iter(&self) -> impl Iterator<Item = &User> {
        self.users.iter()
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True if no users are registered.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(name: &str, r: u64, w: u64) -> User {
        User {
            name: name.to_string(),
            read_cat: Category::from_raw(r),
            write_cat: Category::from_raw(w),
        }
    }

    #[test]
    fn labels_match_paper_conventions() {
        let bob = user("bob", 1, 2);
        assert!(bob.privilege_label().owns(bob.read_cat));
        assert!(bob.privilege_label().owns(bob.write_cat));
        let files = bob.private_file_label();
        assert_eq!(files.level(bob.read_cat), Level::L3);
        assert_eq!(files.level(bob.write_cat), Level::L0);
        // The user's threads can read and write their own files.
        assert!(bob.privilege_label().can_modify(&files));
        // An unprivileged thread can do neither.
        let anon = Label::unrestricted();
        assert!(!anon.can_observe(&files));
        assert!(!anon.can_modify(&files));
    }

    #[test]
    fn user_table_lookup_and_replace() {
        let mut t = UserTable::new();
        assert!(t.is_empty());
        t.add(user("alice", 3, 4));
        t.add(user("bob", 5, 6));
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup("alice").unwrap().read_cat, Category::from_raw(3));
        assert!(t.lookup("carol").is_none());
        // Re-adding replaces.
        t.add(user("alice", 7, 8));
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup("alice").unwrap().read_cat, Category::from_raw(7));
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn multiple_users_cannot_read_each_other() {
        let alice = user("alice", 1, 2);
        let bob = user("bob", 3, 4);
        assert!(!bob
            .privilege_label()
            .can_observe(&alice.private_file_label()));
        assert!(!alice
            .privilege_label()
            .can_observe(&bob.private_file_label()));
        // A single thread can hold both users' privilege at once — something
        // hard to express in Unix (§5.4).
        let both = alice
            .privilege_label()
            .ownership_union(&bob.privilege_label());
        assert!(both.can_observe(&alice.private_file_label()));
        assert!(both.can_observe(&bob.private_file_label()));
    }
}
