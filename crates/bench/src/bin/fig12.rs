//! Regenerates Figure 12 (microbenchmarks).  Run with `--full` for the
//! paper-scale parameters (slower) or no arguments for the default scaled
//! run.

use histar_bench::fig12::{run, Fig12Params};
use histar_bench::BenchJson;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let params = if full {
        Fig12Params {
            ipc_rounds: 200_000,
            proc_iterations: 100,
            small_files: 10_000,
            small_size: 1024,
            large_size: 100 * 1024 * 1024,
            large_chunk: 8 * 1024,
        }
    } else {
        Fig12Params::default()
    };
    println!("parameters: {params:?}\n");
    let table = run(params);
    print!("{}", table.render());
    match BenchJson::from_table("fig12", &table).write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write JSON report: {e}"),
    }
}
