//! FaST-Profiler sweep (paper Figure 8): profile a model's throughput
//! over the spatio-temporal configuration grid and print the table.
//!
//! ```sh
//! cargo run --release --example profiler_sweep [model]
//! ```
//!
//! `model` defaults to `resnet50`; any `fastg-models` zoo name works
//! (resnet50, bert_base, rnnt, gnmt, resnext101, vit_huge).

use fastgshare::paper::{fig8, FIG8_SPATIAL, FIG8_TEMPORAL};
use fastgshare::profiler::{ProfileDb, ProfileKey};

fn main() {
    let model = std::env::args().nth(1).unwrap_or_else(|| "resnet50".into());
    println!("== FaST-Profiler: {model} ==");
    println!("(each cell: requests/second from one single-pod trial)\n");

    let mut db = ProfileDb::new();
    fig8(&model).run_parallel(&mut db, 8).expect("known model");

    print!("{:>8} |", "SM \\ Q");
    for q in FIG8_TEMPORAL {
        print!(" {:>7.0}% |", q * 100.0);
    }
    println!();
    println!("{}", "-".repeat(10 + FIG8_TEMPORAL.len() * 11));
    for sm in FIG8_SPATIAL {
        print!("{sm:>7.0}% |");
        for q in FIG8_TEMPORAL {
            let rps = db
                .get(&model, ProfileKey::new(sm, q))
                .map(|r| r.rps)
                .unwrap_or(f64::NAN);
            print!(" {rps:>8.1} |");
        }
        println!();
    }

    // The profiler's own takeaways, as §5.2 states them.
    let best = db
        .records_of(&model)
        .into_iter()
        .max_by(|a, b| {
            let rpr = |(k, r): &(ProfileKey, _)| -> f64 {
                let r: &fastgshare::profiler::ProfileRecord = r;
                r.rps / (k.sm() / 100.0 * k.quota())
            };
            rpr(a).partial_cmp(&rpr(b)).unwrap()
        })
        .expect("grid profiled");
    println!(
        "\nmost efficient configuration (highest RPS-per-resource): \
         {}% SMs x {}% quota -> {:.1} req/s",
        best.0.sm(),
        best.0.quota() * 100.0,
        best.1.rps
    );
}
