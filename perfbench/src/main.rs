//! Layered end-to-end benchmark for the netbatch simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_week --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run repeats the workload's cells for `--seconds`
//! and prints the end-to-end metrics (interquartile means over the
//! iterations); with `--trace 1` it prints the per-layer metrics of one
//! traced iteration and writes its spans to `.perfbench_out/`. The last line of standard
//! output is the JSON result; lines before it start with `#`. See
//! `perfbench/README.md` for the workloads, metrics and layers.

mod alloc;
mod bench;
mod calib;
mod check;
mod host;
mod layers;
mod observe;
mod spans;
mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

fn main() {
    let args = match bench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let outcome = bench::run(&args);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for error in &outcome.errors {
        println!("# error {error}");
    }
    println!("{}", outcome.json());
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests;
