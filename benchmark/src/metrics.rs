//! The metric tables `BENCHMARK.json` declares, and how each value is
//! computed from a run's samples.

use crate::render::ARTIFACTS;
use crate::stats::{median, percentile};
use crate::traced::Sample;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Reported with `--trace 0`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_p90_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "records_per_s",
        unit: "records/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_per_run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_live_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric (`--trace 1`): name, unit, direction.
pub type Layer = (String, &'static str, Better);

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer_table() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut t: Vec<Layer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        t.push((name.to_owned(), unit, better));
    };
    add("nlp.classify_s", "s", Lower);
    add("nlp.ns_per_record", "ns", Lower);
    add("nlp.allocs_per_record", "count", Lower);
    add("stage_iv.total_s", "s", Lower);
    for a in ARTIFACTS {
        add(&format!("stage_iv.{a}_s"), "s", Lower);
    }
    add("stage_iv.allocs", "count", Lower);
    add("ocr.digitize_s", "s", Lower);
    add("ocr.ns_per_byte", "ns", Lower);
    add("ocr.max_shard_s", "s", Lower);
    add("ocr.allocs", "count", Lower);
    add("ocr.mean_cer", "fraction", Lower);
    add("cache.load_s", "s", Lower);
    add("cache.decode_s", "s", Lower);
    add("cache.encode_s", "s", Lower);
    add("cache.save_s", "s", Lower);
    add("cache.bytes_read", "bytes", Lower);
    add("cache.bytes_written", "bytes", Lower);
    add("cache.hit_ratio", "fraction", Higher);
    add("cache.evictions", "count", Lower);
    add("corpus.gen_s", "s", Lower);
    add("corpus.bytes", "bytes", Lower);
    add("corpus.allocs", "count", Lower);
    add("reports.normalize_s", "s", Lower);
    add("reports.lines", "count", Lower);
    add("reports.failures", "count", Lower);
    add("reports.allocs", "count", Lower);
    add("merge.build_s", "s", Lower);
    add("session.overhead_s", "s", Lower);
    add("session.overhead_frac", "fraction", Lower);
    add("obs.overhead_frac", "fraction", Lower);
    add("par.speedup", "ratio", Higher);
    add("par.critical_path_s", "s", Lower);
    add("par.shard_skew", "ratio", Lower);
    add("trace.coverage", "fraction", Higher);
    t
}

/// One measured round of a `--trace 0` run.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time of every correct iteration.
    pub walls: Vec<f64>,
    /// Records those iterations recovered, in total.
    pub records: u64,
    /// Iterations run (correct or not).
    pub iterations: usize,
    /// Process CPU time over the round, less the calibration kernel's.
    pub cpu_s: f64,
    /// Host-speed factor of the round (see `calib`).
    pub speed: f64,
}

impl Round {
    /// The rounds as one, times scaled by each round's host-speed
    /// factor when `scaled`.
    pub fn merge(rounds: &[Round], scaled: bool) -> Round {
        let mut all = Round::default();
        for r in rounds {
            let f = if scaled { r.speed } else { 1.0 };
            all.walls.extend(r.walls.iter().map(|w| w * f));
            all.records += r.records;
            all.iterations += r.iterations;
            all.cpu_s += r.cpu_s * f;
        }
        all
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end values, in [`END_TO_END`] order, of `run` plus the
/// peak live heap of each memory-sample iteration (bytes) and the
/// wall time of each set-up.
pub fn end_to_end(run: &Round, peaks: &[f64], setups: &[f64]) -> Vec<f64> {
    vec![
        percentile(&run.walls, 0.5).unwrap_or(0.0),
        percentile(&run.walls, 0.9).unwrap_or(0.0),
        ratio(run.records as f64, run.walls.iter().sum()),
        ratio(run.cpu_s, run.iterations as f64),
        median(peaks) / f64::from(1u32 << 20),
        median(setups),
    ]
}

/// What one `--trace 1` run measured.
pub struct TracedRun<'a> {
    /// One sample per timed traced pass.
    pub samples: &'a [Sample],
    /// The allocation-counted pass.
    pub counted: &'a Sample,
    /// `RunSession` wall (plus Stage IV) at one worker.
    pub session_jobs1: &'a [f64],
    /// The same at the run's worker count.
    pub session_jobs: &'a [f64],
    /// `obs.overhead.frac` of each one-worker session run.
    pub obs_overhead: &'a [f64],
}

/// The per-layer values, in [`per_layer_table`] order.
pub fn per_layer(run: &TracedRun) -> Vec<f64> {
    let med = |f: &dyn Fn(&Sample) -> f64| median(&run.samples.iter().map(f).collect::<Vec<_>>());
    let counted = run.counted;
    let c = &counted.counts;
    let records = c.records_classified as f64;
    let j1 = median(run.session_jobs1);
    let layers = med(&|s| s.time(""));
    let mut v = vec![
        med(&|s| s.time("nlp.")),
        med(&|s| ratio(s.time("nlp.") * 1e9, s.counts.records_classified as f64)),
        ratio(counted.allocs("nlp.") as f64, records),
        med(&|s| s.time("stage_iv.")),
    ];
    for a in ARTIFACTS {
        let name = format!("stage_iv.{a}");
        v.push(med(&|s| s.exact(&name)));
    }
    v.extend([
        counted.allocs("stage_iv.") as f64,
        med(&|s| s.time("ocr.")),
        med(&|s| ratio(s.time("ocr.") * 1e9, s.counts.ocr_bytes as f64)),
        med(&|s| s.ocr_max_shard_s),
        counted.allocs("ocr.") as f64,
        ratio(c.ocr_cer_weighted, c.ocr_documents as f64),
        med(&|s| s.time("cache.load")),
        med(&|s| s.time("cache.decode")),
        med(&|s| s.time("cache.encode")),
        med(&|s| s.time("cache.save")),
        c.bytes_read as f64,
        c.bytes_written as f64,
        ratio(c.hits as f64, c.probes as f64),
        med(&|s| s.counts.evictions as f64),
        med(&|s| s.time("corpus.")),
        c.corpus_bytes as f64,
        counted.allocs("corpus.") as f64,
        med(&|s| s.time("reports.")),
        c.report_lines as f64,
        c.report_failures as f64,
        counted.allocs("reports.") as f64,
        med(&|s| s.time("merge.")),
        j1 - layers,
        ratio(j1 - layers, j1),
        median(run.obs_overhead),
        ratio(j1, median(run.session_jobs)),
        med(&|s| s.shard_s.iter().copied().fold(0.0, f64::max)),
        med(&|s| {
            let max = s.shard_s.iter().copied().fold(0.0, f64::max);
            ratio(
                max,
                s.shard_s.iter().sum::<f64>() / s.shard_s.len().max(1) as f64,
            )
        }),
        med(&Sample::coverage),
    ]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};
    use disengage_obs::json::Value;

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> Vec<(&'a str, &'a str, &'a str)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k);
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = declared();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.name()))
            .collect();
        assert_eq!(entries(&doc, "end_to_end"), e2e);
        for (m, j) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Value::as_arr).unwrap())
        {
            assert_eq!(
                j.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = per_layer_table();
        let want: Vec<_> = layers
            .iter()
            .map(|(n, u, b)| (n.as_str(), *u, b.name()))
            .collect();
        assert_eq!(entries(&doc, "per_layer"), want);
    }

    #[test]
    fn every_name_and_unit_is_in_the_charset_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_owned()).collect();
        names.extend(per_layer_table().into_iter().map(|(n, _, _)| n));
        let mut units: Vec<&str> = END_TO_END.iter().map(|m| m.unit).collect();
        units.extend(per_layer_table().iter().map(|(_, u, _)| *u));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        for u in units {
            assert!(valid_unit(u), "{u}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }

    #[test]
    fn computed_values_line_up_with_the_tables() {
        let sample = Sample::default();
        let run = TracedRun {
            samples: std::slice::from_ref(&sample),
            counted: &sample,
            session_jobs1: &[1.0],
            session_jobs: &[0.5],
            obs_overhead: &[0.01],
        };
        let values = per_layer(&run);
        assert_eq!(values.len(), per_layer_table().len());
        assert!(values.iter().all(|v| v.is_finite()));
        let speedup = per_layer_table()
            .iter()
            .position(|(n, _, _)| n == "par.speedup");
        assert_eq!(values[speedup.unwrap()], 2.0);
        let rounds = [
            Round {
                walls: vec![1.0, 3.0],
                records: 8,
                iterations: 2,
                cpu_s: 6.0,
                speed: 1.0,
            },
            Round {
                walls: vec![1.0],
                records: 4,
                iterations: 1,
                cpu_s: 1.5,
                speed: 2.0,
            },
        ];
        let e2e = end_to_end(
            &Round::merge(&rounds, true),
            &[f64::from(1u32 << 20)],
            &[0.5, 0.7, 0.6],
        );
        assert_eq!(e2e, vec![2.0, 2.8, 2.0, 3.0, 1.0, 0.6]);
        let raw = end_to_end(&Round::merge(&rounds, false), &[], &[]);
        assert_eq!(raw[..4], [1.0, 2.6, 12.0 / 5.0, 2.5]);
    }
}
