//! The repository benchmark: one command, three workloads, exact
//! end-to-end percentiles, per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire-read-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) named in `BENCHMARK.json`. See `perfbench/README.md`.

mod acks;
mod drive;
mod layers;
mod procfs;
mod samples;
mod setup;

use acks::Writes;
use drive::{Record, Timeline};
use layers::{Metric, Traced, Window};
use samples::{Kind, Tally};
use setup::{Env, Workload, VALUE_LEN, WORKLOADS};
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// End-to-end metrics printed in the result line, in `BENCHMARK.json`
/// order. Every workload reports every one of them.
const END_TO_END: [&str; 5] = [
    "get_p50_us",
    "cpu_us_per_op",
    "cost_per_kop",
    "peak_rss_mb",
    "setup_s",
];

/// After the measured window, set-ups are timed, each the first in a
/// fresh process as the window's own is, at least [`MIN_SETUPS`] times
/// and until [`SETUP_TIME`] has passed; `setup_s` is their median. Set-ups
/// repeated inside the process that ran the window are not used: on a
/// 2-vCPU VM some such processes ran every one of them in about 1.85 s
/// where fresh processes took 1.2–1.5 s, so their medians spread by 0.37
/// over ten seeds.
const MIN_SETUPS: usize = 5;
const SETUP_TIME: Duration = Duration::from_secs(12);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Only time one set-up and print its seconds: the child process
    /// [`setup_seconds`] starts.
    setup_only: bool,
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> [--setup-only 1]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            usage("every flag takes a value")
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s| s >= 2),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--setup-only" => setup_only = value == "1",
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed takes an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds takes an integer of at least 2")),
        trace: trace.unwrap_or_else(|| usage("--trace takes 0 or 1")),
        setup_only,
    }
}

/// Median seconds of the timed set-ups. Each runs in a child process,
/// this program with the same arguments and `--setup-only 1`, which
/// builds the environment, prints the seconds that took, shuts it down
/// and exits; the next starts after it has ended.
fn setup_seconds() -> f64 {
    let exe = std::env::current_exe().expect("path of this program");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut setups, start) = (Vec::new(), Instant::now());
    while setups.len() < MIN_SETUPS || start.elapsed() < SETUP_TIME {
        let out = Command::new(&exe)
            .args(&argv)
            .args(["--setup-only", "1"])
            .stderr(Stdio::inherit())
            .output()
            .expect("run a set-up");
        assert!(out.status.success(), "set-up failed: {}", out.status);
        let secs = String::from_utf8_lossy(&out.stdout).trim().parse();
        setups.push(secs.expect("a set-up prints its seconds"));
    }
    eprintln!("perfbench: {} setups took {setups:.3?} s", setups.len());
    median(setups)
}

/// After the drain-and-shutdown, every record must be readable through
/// the final partition map, and its value must be one the acknowledged
/// writes allow (see [`acks::final_ok`]). Every write the workloads issue
/// updates a loaded record, so this reads back every acknowledged write.
/// Returns how many records failed.
fn lost_writes(env: &mut Env, w: &Workload, writes: &[Writes]) -> u64 {
    let map = env
        .wire
        .as_ref()
        .map(|(server, _)| server.router().map().load());
    env.shut_down();
    (0..w.records)
        .filter(|&id| {
            let key = dcs_workload::keys::encode(id);
            let shard = match &map {
                Some(map) => map.shard_of(&key),
                None => env.partitioner.shard_of(&key),
            };
            let v = dcs_workload::KvStore::kv_get(&*env.stores[shard], &key);
            !matches!(v, Ok(v) if acks::final_ok(id, v.as_deref(), VALUE_LEN, writes))
        })
        .count() as u64
}

/// Time the protocol codec over a window's own frames: `(encode ns,
/// decode ns, bytes)` per operation, each operation one request and one
/// response frame.
fn codec(frames: &[(dcs_server::Request, dcs_server::Response)]) -> (f64, f64, f64) {
    use dcs_server::protocol::{decode_frame, encode_frame, encode_to_vec};
    use dcs_server::Frame;
    if frames.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let frames: Vec<Frame> = frames
        .iter()
        .enumerate()
        .flat_map(|(i, (req, resp))| {
            [
                Frame::Request {
                    id: i as u64,
                    req: req.clone(),
                },
                Frame::Response {
                    id: i as u64,
                    resp: resp.clone(),
                },
            ]
        })
        .collect();
    let encoded: Vec<Vec<u8>> = frames.iter().map(encode_to_vec).collect();
    let ops = (frames.len() / 2) as f64;
    let bytes = encoded.iter().map(Vec::len).sum::<usize>() as f64 / ops;
    // Repeat passes until each side has run for at least this long, so
    // the per-operation figure is not a single cold pass.
    const MIN: Duration = Duration::from_millis(100);
    let mut buf = Vec::with_capacity(1 << 16);
    let (mut passes, t) = (0u32, Instant::now());
    while passes == 0 || t.elapsed() < MIN {
        for f in &frames {
            buf.clear();
            encode_frame(black_box(f), &mut buf);
            black_box(&buf);
        }
        passes += 1;
    }
    let encode = t.elapsed().as_nanos() as f64 / (passes as f64 * ops);
    let (mut passes, t) = (0u32, Instant::now());
    while passes == 0 || t.elapsed() < MIN {
        for e in &encoded {
            black_box(decode_frame(black_box(e)).expect("own frame decodes"));
        }
        passes += 1;
    }
    let decode = t.elapsed().as_nanos() as f64 / (passes as f64 * ops);
    (encode, decode, bytes)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Every end-to-end figure of one untraced window. Only the names in
/// [`END_TO_END`] go into the result line; the rest are reported on
/// stderr for the workloads that issue the operation.
fn end_to_end(t: &Tally, win: &Window, peak_rss_mb: f64, setup_s: f64) -> Vec<Metric> {
    let ops = t.completed() as f64;
    let get = t.sorted(Kind::Get);
    let put = t.sorted(Kind::Put);
    vec![
        ("get_p50_us", get.us(0.5), "us"),
        ("get_p90_us", get.us(0.9), "us"),
        ("get_p99_us", get.us(0.99), "us"),
        ("put_p50_us", put.us(0.5), "us"),
        ("put_p99_us", put.us(0.99), "us"),
        ("scan_p50_us", t.sorted(Kind::Scan).us(0.5), "us"),
        ("slo_miss_ratio", t.slo_miss_ratio(), "ratio"),
        ("throughput_ops_s", ops / win.secs(), "ops/s"),
        ("cpu_us_per_op", win.cpu_s() * 1e6 / ops, "us"),
        ("failed_ratio", samples::ratio(t.failed, t.issued), "ratio"),
        ("cost_per_kop", win.cost() * 1e3 / ops, "usd"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("setup_s", setup_s, "s"),
    ]
}

fn report_samples(t: &Tally) {
    for k in Kind::ALL {
        let s = t.sorted(k);
        if s.len() > 0 {
            eprintln!(
                "  {:<5} n={:<8} mean={:>9.1}us p50={:>10.1}us p90={:>10.1}us p99={:>10.1}us max={:>10.1}us ({} beyond p99)",
                k.name(),
                s.len(),
                s.mean_us(),
                s.us(0.5),
                s.us(0.9),
                s.us(0.99),
                s.us(1.0),
                s.beyond(0.99)
            );
        }
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    // The program's own span sampling stays off: its cost would land in
    // every measured figure. Traced runs time the layers from here.
    dcs_telemetry::set_sampling_permille(0);
    if args.setup_only {
        let t = Instant::now();
        let mut env = Env::build(&w, args.seed);
        println!("{}", t.elapsed().as_secs_f64());
        env.shut_down();
        return;
    }
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={} ({} CPUs available; latencies are this \
         machine's CPU path over a simulated device with no injected latency)",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut env = Env::build(&w, args.seed);
    let windows: Vec<(Duration, bool)> = if args.trace {
        // One-second windows, untraced and traced in turn: their get p50s
        // give the tracing overhead without mistaking a drift over the
        // run for it.
        (0..args.seconds)
            .map(|i| (Duration::from_secs(1), i % 2 == 1))
            .collect()
    } else {
        vec![(Duration::from_secs(args.seconds), false)]
    };
    let tl = Timeline::new(&windows);
    let (record, snaps) = drive::run(&w, &env, args.seed, &tl);
    let Record {
        tallies,
        submit,
        wait,
        send_lag,
        frames,
        writes,
    } = record;
    let lost = lost_writes(&mut env, &w, &writes);
    drop(env);

    // Per-kind latencies of the untraced and of the traced windows.
    let (mut measured, mut traced_windows) = (Tally::default(), Tally::default());
    for (t, &traced) in tallies.into_iter().zip(&tl.traced) {
        if traced {
            traced_windows.merge(t);
        } else {
            measured.merge(t);
        }
    }
    let get_p50_us = (
        measured.sorted(Kind::Get).us(0.5),
        traced_windows.sorted(Kind::Get).us(0.5),
    );
    measured.merge(traced_windows);
    let win = Window {
        open: snaps.first().expect("a snapshot per bound"),
        close: snaps.last().expect("a snapshot per bound"),
    };
    let correct = lost == 0 && measured.wrong == 0;
    eprintln!(
        "perfbench: {} requests measured, {} failed ({} wrong replies); {} records fail the read-back of acknowledged writes",
        measured.issued, measured.failed, measured.wrong, lost
    );
    report_samples(&measured);

    let metrics = if args.trace {
        let traced = Traced {
            tally: &measured,
            submit: &submit,
            wait: &wait,
            send_lag: &send_lag,
            get_p50_us,
            codec: codec(&frames),
        };
        let metrics = layers::per_layer(&win, &traced);
        for (name, value, unit) in &metrics {
            eprintln!("  {name:<32} {value:>14.4} {unit}");
        }
        metrics
    } else {
        // The peak before the window opened, or the one it closed with
        // less the latency samples, which are the benchmark's own memory
        // and grow with throughput.
        let samples_mb = measured.sample_bytes() as f64 / (1 << 20) as f64;
        let peak_rss_mb = win.open.peak_rss_mb.max(win.close.peak_rss_mb - samples_mb);
        let all = end_to_end(&measured, &win, peak_rss_mb, setup_seconds());
        for (name, value, unit) in &all {
            eprintln!("  {name:<18} {value:>14.4} {unit}");
        }
        all.into_iter()
            .filter(|(name, _, _)| END_TO_END.contains(name))
            .collect()
    };
    println!(
        "{}",
        json_line(correct, measured.issued, measured.failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names this program prints must be exactly the ones the
    /// benchmark declares, in each mode.
    #[test]
    fn metric_names_match_benchmark_json() {
        let decl =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = decl.find(&format!("\"{key}\"")).expect("section present");
            let body = &decl[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
        assert_eq!(section("end_to_end"), e2e);

        let snap = layers::Snap::take(&[], &[]);
        let win = Window {
            open: &snap,
            close: &snap,
        };
        let tally = Tally::default();
        let traced = Traced {
            tally: &tally,
            submit: &[],
            wait: &[],
            send_lag: &[],
            get_p50_us: (0.0, 0.0),
            codec: (0.0, 0.0, 0.0),
        };
        let layer: Vec<String> = layers::per_layer(&win, &traced)
            .iter()
            .map(|m| m.0.to_string())
            .collect();
        assert_eq!(section("per_layer"), layer);

        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(section("workloads"), workloads);
    }

    #[test]
    fn json_line_shape() {
        let line = json_line(true, 3, 0, &[("a", 1.5, "us"), ("b", f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn codec_times_own_frames() {
        let frames = vec![(
            dcs_server::Request::Get {
                key: dcs_workload::keys::encode(1).to_vec(),
            },
            dcs_server::Response::Value(Some(dcs_workload::keys::value_for(1, 0, 100))),
        )];
        let (enc, dec, bytes) = codec(&frames);
        assert!(enc > 0.0 && dec > 0.0);
        assert!(bytes > 100.0);
    }
}
