//! Reproduces the §4.1 code-size discussion: lines of Rust per subsystem of
//! this reproduction, next to the paper's C line counts for the HiStar
//! kernel components.

use histar_bench::report::BenchJson;
use std::fs;
use std::path::Path;

/// `(total, code, non-test code)` lines of every `.rs` file under `dir`.
/// Code lines are non-blank, non-comment; non-test code lines are the
/// code lines before a file's first `#[cfg(test)]`.
fn count_lines(dir: &Path) -> (usize, usize, usize) {
    let mut sum = (0, 0, 0);
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let (t, c, n) = count_lines(&path);
                sum = (sum.0 + t, sum.1 + c, sum.2 + n);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(text) = fs::read_to_string(&path) {
                    let mut in_tests = false;
                    for line in text.lines() {
                        sum.0 += 1;
                        let trimmed = line.trim();
                        in_tests |= trimmed.starts_with("#[cfg(test)]");
                        if !trimmed.is_empty() && !trimmed.starts_with("//") {
                            sum.1 += 1;
                            sum.2 += usize::from(!in_tests);
                        }
                    }
                }
            }
        }
    }
    sum
}

fn main() {
    println!("== Code-size inventory (cf. paper §4.1: 15,200 lines of C kernel code) ==");
    println!(
        "{:<28} {:>12} {:>12} {:>14}",
        "crate", "total lines", "code lines", "non-test src"
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // Every crate in the workspace (sorted, so the rows are stable) plus
    // the root package's own trees: no list to fall out of date.
    let mut dirs: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("the workspace has a crates/ directory")
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| format!("crates/{}", e.file_name().to_string_lossy()))
        .collect();
    dirs.sort();
    dirs.extend(["src", "examples", "tests"].map(String::from));

    let mut json = BenchJson::new("codesize");
    let mut grand = (0, 0);
    for dir in &dirs {
        let (total, code, _) = count_lines(&root.join(dir));
        grand.0 += total;
        grand.1 += code;
        json.metric(&format!("{dir}.total_lines"), total as f64, 0);
        json.metric(&format!("{dir}.code_lines"), code as f64, 0);
        // Per crate, what ships: `src/**` without its unit-test modules —
        // for `crates/kernel`, the figure to set beside the paper's 15,200.
        if dir.starts_with("crates/") {
            let (_, _, nontest) = count_lines(&root.join(dir).join("src"));
            println!("{dir:<28} {total:>12} {code:>12} {nontest:>14}");
            json.metric(&format!("{dir}.nontest_code_lines"), nontest as f64, 0);
        } else {
            println!("{dir:<28} {total:>12} {code:>12}");
        }
    }
    println!("{:<28} {:>12} {:>12}", "TOTAL", grand.0, grand.1);
    json.metric("total.total_lines", grand.0 as f64, 0);
    json.metric("total.code_lines", grand.1 as f64, 0);
    println!();
    println!("Paper kernel breakdown (C): 3,400 arch, 4,000 B+-tree/log/persistence,");
    println!("3,000 device drivers, 4,800 syscalls/containers/misc = 15,200 total;");
    println!("Unix emulation library: ~10,000 lines; wrap: 110 lines;");
    println!("auth services: 58 + 188 + 233 + 370 + 30 lines.");
    let path = json.write().expect("write BENCH_codesize.json");
    println!("wrote {}", path.display());
}
