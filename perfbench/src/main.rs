//! Command-line entry point of the benchmark (see the library docs).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(aderdg_perfbench::cli_main(&args));
}
