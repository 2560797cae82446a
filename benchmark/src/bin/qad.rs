//! One federation node as an OS process; see `qa_cluster::qad`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(qa_cluster::qad::qad_main(&args));
}
