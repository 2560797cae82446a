//! `qa_fig <name>... | all`: runs rows of `qa_bench::FIGURES`, prints each
//! one's text and writes its files under `bench_results/`. `QA_SCALE`
//! (`ci` by default, or `full`) picks the scale and `QA_THREADS` the
//! worker budget; each row's wall time goes to stderr.

use qa_bench::{figure, scale, write_result, Figure, FIGURES};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows: Vec<&Figure> = if args == ["all"] {
        FIGURES.iter().collect()
    } else {
        let row = |name: &String| figure(name).unwrap_or_else(|| usage(Some(name)));
        args.iter().map(row).collect()
    };
    if rows.is_empty() {
        usage(None);
    }
    let (scale, threads) = (scale(), qa_simnet::thread_budget());
    for fig in rows {
        let start = Instant::now();
        let report = (fig.run)(scale, threads);
        print!("{}", report.text);
        for (file, contents) in &report.files {
            let path = write_result(file, contents).expect("write result");
            println!("wrote {}", path.display());
        }
        println!();
        let secs = start.elapsed().as_secs_f64();
        eprintln!("qa_fig: {} took {secs:.2} s", fig.name);
    }
}

fn usage(bad: Option<&str>) -> ! {
    if let Some(bad) = bad {
        eprintln!("qa_fig: no figure {bad:?}");
    }
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!(
        "usage: qa_fig <name>... | all\nfigures: {}",
        names.join(" ")
    );
    std::process::exit(2)
}
