//! `prever-benchmark`: see `prever_benchmark::cli`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(prever_benchmark::cli::main(args));
}
