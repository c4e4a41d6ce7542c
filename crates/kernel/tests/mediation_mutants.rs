//! Mediation is a type: a handler that skips its label check, or goes
//! around the proof the check returns, does not compile.
//!
//! The test copies the kernel and the four crates it builds on into a
//! temporary workspace, checks that the pristine copy passes `cargo check`,
//! then applies one mutant at a time to `syscalls.rs`, `kernel/checked.rs`
//! or `dispatch.rs` and requires `cargo check` to fail with the error that
//! names the way around: a private field (E0616), a private method
//! (E0624), a proof built without its private fields (E0423), a grant
//! whose constructor is private to the one module that mints it (E0603), a
//! method the handler's `Sys` does not have (E0599), a private field in a
//! struct literal (E0451), the crate's denied `private_interfaces` lint,
//! or a `syscalls!` row whose spellings name two calls (E0080, the row's
//! `const` assertion).
//!
//! Each mutant's text must occur exactly once in the pristine file, so a
//! handler that changes shape fails here loudly instead of letting its
//! mutant go stale.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The crates the copy builds: the kernel and its dependencies.
const CRATES: [&str; 5] = ["kernel", "label", "sim", "store", "obs"];

struct Mutant {
    what: &'static str,
    file: &'static str,
    find: &'static str,
    replace: &'static str,
    expect: &'static str,
}

const SYSCALLS: &str = "crates/kernel/src/syscalls.rs";
const CHECKED: &str = "crates/kernel/src/kernel/checked.rs";
const DISPATCH: &str = "crates/kernel/src/dispatch.rs";

const MUTANTS: &[Mutant] = &[
    Mutant {
        what: "1. sys_container_list reads the container without its observe check",
        file: SYSCALLS,
        find: "        let d = self.check_observe(t, container)?;
        let (_, body) = self.read::<ContainerBody>(&d)?;
        Ok(body.links.clone())",
        replace: "        let (_, body) = self.typed::<ContainerBody>(container)?;
        Ok(body.links.clone())",
        expect: "E0624",
    },
    Mutant {
        what: "2. sys_obj_sync without check_modify, on an observe check",
        file: SYSCALLS,
        find: "        let m = self.check_modify(t, entry.object)?;
        self.sync_object(&m, pages)",
        replace: "        let m = crate::kernel::Modifiable(self.check_observe(t, entry.object)?);
        self.sync_object(&m, pages)",
        expect: "E0423",
    },
    Mutant {
        what: "3. sys_segment_watch registers a watch without its observe check",
        file: SYSCALLS,
        find: "        let o = self.check_observe(t, entry.object)?;
        let list = self.watchers(&o)?;",
        replace: "        let list = &mut self.obj_mut(entry.object)?.watchers;",
        expect: "E0624",
    },
    Mutant {
        what: "4. sys_persist_read returns the label and payload without check_record_observe",
        file: SYSCALLS,
        find: "        let (label, payload) = checks.check_record_observe(t, record)?;",
        replace: "        let (label, payload) = (record.label, record.payload);",
        expect: "E0616",
    },
    Mutant {
        what: "5. a handler names self.store",
        file: SYSCALLS,
        find: "        self.delete_record(&w);",
        replace: "        self.store.delete(w.key());",
        expect: "E0616",
    },
    Mutant {
        what: "5. a handler names self.objects",
        file: SYSCALLS,
        find: "        self.header_mut(&m)?.flags.immutable = true;",
        replace: "        self.objects.get_mut(&entry.object).unwrap().header.flags.immutable = true;",
        expect: "E0616",
    },
    Mutant {
        what: "6. a handler forges Observed(id)",
        file: SYSCALLS,
        find: "        let o = self.check_observe(t, entry.object)?;
        Ok(self.read::<SegmentBody>(&o)?.1.len() as u64)",
        replace: "        let o = crate::kernel::Observed(entry.object);
        Ok(self.read::<SegmentBody>(&o)?.1.len() as u64)",
        expect: "E0423",
    },
    Mutant {
        what: "7. a handler forges a Caller",
        file: SYSCALLS,
        find: "        self.caller_mut(t)?.1.state = ThreadState::Halted;",
        replace: "        let other = Caller { tid: self.root(), label: Label::unrestricted(), clearance: Label::unrestricted() };
        self.caller_mut(&other)?.1.state = ThreadState::Halted;",
        expect: "E0451",
    },
    Mutant {
        what: "8. sys_self_halt halts another thread through a raw accessor",
        file: SYSCALLS,
        find: "        self.caller_mut(t)?.1.state = ThreadState::Halted;",
        replace: "        self.typed_mut::<ThreadBody>(ObjectId::from_raw(t.tid().raw() ^ 1))?.1.state = ThreadState::Halted;",
        expect: "E0624",
    },
    Mutant {
        what: "9. a handler calls a console method",
        file: SYSCALLS,
        find: "        Ok(t.label().clone())",
        replace: "        self.thread_label(t.tid())",
        expect: "E0599",
    },
    Mutant {
        what: "10. a handler is pub fn",
        file: SYSCALLS,
        find: "    pub(crate) fn sys_self_halt(",
        replace: "    pub fn sys_self_halt(",
        expect: "private_interfaces",
    },
    Mutant {
        what: "11. check_observe drops count_label_check's verdict",
        file: CHECKED,
        find: "        let grant = verdict.ok_or(SyscallError::CannotObserve(oid))?;",
        replace: "        let grant = verdict.unwrap_or(verdict::Grant(()));",
        expect: "E0603",
    },
    Mutant {
        what: "12. check_entry mints its proof with no comparison",
        file: CHECKED,
        find: "        let Observed(_, grant) = self.check_observe(t, entry.container)?;",
        replace: "        let grant = verdict::Grant(());",
        expect: "E0603",
    },
    Mutant {
        what: "13. a row routes trap_self_get_label to sys_self_get_clearance",
        file: DISPATCH,
        find: "    SelfGetLabel self_get_label sys_self_get_label trap_self_get_label",
        replace: "    SelfGetLabel self_get_label sys_self_get_clearance trap_self_get_label",
        expect: "E0080",
    },
];

const MANIFEST: &str = r#"[workspace]
resolver = "2"
members = ["crates/kernel", "crates/label", "crates/sim", "crates/store", "crates/obs"]

[workspace.package]
version = "0.1.0"
edition = "2021"
license = "MIT"

[workspace.lints.clippy]
disallowed_types = "forbid"
"#;

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let dest = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_dir(&path, &dest);
        } else {
            std::fs::copy(&path, &dest).unwrap();
        }
    }
}

/// Runs `cargo check` on the copy's kernel; `Ok` on success, else the
/// compiler's output.
fn check(workspace: &Path) -> Result<(), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "check",
            "--offline",
            "--quiet",
            "-p",
            "histar-kernel",
            "--lib",
        ])
        .current_dir(workspace)
        .env("CARGO_TARGET_DIR", workspace.join("target"))
        .env_remove("RUSTFLAGS")
        .output()
        .unwrap();
    if out.status.success() {
        Ok(())
    } else {
        Err(String::from_utf8_lossy(&out.stderr).into_owned())
    }
}

#[test]
fn every_mutant_fails_to_compile_with_its_error() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let workspace: PathBuf =
        std::env::temp_dir().join(format!("histar-mediation-mutants-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&workspace);
    for krate in CRATES {
        let (from, to) = (
            root.join("crates").join(krate),
            workspace.join("crates").join(krate),
        );
        copy_dir(&from.join("src"), &to.join("src"));
        std::fs::copy(from.join("Cargo.toml"), to.join("Cargo.toml")).unwrap();
    }
    std::fs::write(workspace.join("Cargo.toml"), MANIFEST).unwrap();

    if let Err(out) = check(&workspace) {
        panic!("the pristine copy does not check:\n{out}");
    }
    let mut survivors = Vec::new();
    for m in MUTANTS {
        let path = workspace.join(m.file);
        let pristine = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            pristine.matches(m.find).count(),
            1,
            "{}: stale mutant",
            m.what
        );
        std::fs::write(&path, pristine.replacen(m.find, m.replace, 1)).unwrap();
        match check(&workspace) {
            Ok(()) => survivors.push(format!("{}: compiles", m.what)),
            Err(out) if !out.contains(m.expect) => {
                survivors.push(format!("{}: no {} in\n{out}", m.what, m.expect))
            }
            Err(_) => {}
        }
        std::fs::write(&path, pristine).unwrap();
    }
    let _ = std::fs::remove_dir_all(&workspace);
    assert!(survivors.is_empty(), "{}", survivors.join("\n\n"));
}
