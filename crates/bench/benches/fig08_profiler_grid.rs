//! Figure 8: function throughput from FaST-Profiler over the full
//! spatio-temporal grid — temporal {20,40,60,80,100 %} ×
//! spatial {6,12,24,50,60,80,100 %} — for the four MLPerf models.
//!
//! Paper shape: throughput grows proportionally along the temporal axis
//! (effective temporal isolation) and saturates along the spatial axis at
//! a model-dependent partition (effective spatial isolation); larger
//! models saturate later.

use fastgshare::paper::{fig8, FIG8_SPATIAL, FIG8_TEMPORAL};
use fastgshare::profiler::{ProfileDb, ProfileKey};

fn main() {
    println!("\n=== Figure 8: profiled throughput (req/s) per (SM %, quota %) ===");
    for model in ["resnet50", "bert_base", "rnnt", "gnmt"] {
        let mut db = ProfileDb::new();
        fig8(model).run_parallel(&mut db, 8).expect("zoo model");
        println!("\n-- {model} --");
        print!("{:>8} |", "SM \\ Q");
        for q in FIG8_TEMPORAL {
            print!(" {:>6.0}% |", q * 100.0);
        }
        println!();
        for sm in FIG8_SPATIAL {
            print!("{sm:>7.0}% |");
            for q in FIG8_TEMPORAL {
                let rps = db
                    .get(model, ProfileKey::new(sm, q))
                    .map(|r| r.rps)
                    .unwrap_or(f64::NAN);
                print!(" {rps:>7.1} |");
            }
            println!();
        }
    }
    println!(
        "\npaper shape: columns scale ~linearly with quota; rows flatten past \
         each model's saturation partition (ResNet ~24 %, BERT ~50 %, \
         GNMT ~75 %)."
    );
}
