//! End-to-end and per-layer benchmark of the MedSen clinic serving path.
//!
//! ```text
//! cargo run --release --manifest-path clinicbench/Cargo.toml -- \
//!     --workload clinic_diagnose --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Generates seeded inputs, sets up the deployed stack (gateway in front
//! of a durable, replicated primary + standby), drives it through the
//! phone's public calls, checks every output, and prints a human-readable
//! table followed by one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod checks;
mod drive;
mod inputs;
mod layers;
mod stack;
mod stats;

use drive::{Cursor, Phase};
use inputs::Inputs;
use layers::{Exposition, Mark, Replay, Spans};
use medsen::telemetry::Stage;
use stack::{DataDirs, Stack};
use stats::{median, percentile, tail_percentile, CpuTimes, Rss};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Stack builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;
/// Visits `records_durable` makes per second of `--seconds`, near the
/// pace one session keeps on two vCPUs (2.5–4.8 ms a visit), so a run
/// lasts about `--seconds` on such a host.
const VISITS_PER_SECOND: f64 = 300.0;
/// Largest median count error (percent) the diagnose workloads accept.
const COUNT_ERROR_GATE_PCT: f64 = 25.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ClinicDiagnose,
    RecordsDurable,
    OnewayLossy,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ClinicDiagnose,
        Workload::RecordsDurable,
        Workload::OnewayLossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClinicDiagnose => "clinic_diagnose",
            Workload::RecordsDurable => "records_durable",
            Workload::OnewayLossy => "oneway_lossy",
        }
    }

    /// The tail percentile reported when the run has the samples for it:
    /// the highest one a run of nominal length leaves ten samples beyond.
    fn nominal_tail(self) -> f64 {
        match self {
            Workload::ClinicDiagnose => 90.0,
            Workload::RecordsDurable => 95.0,
            Workload::OnewayLossy => 95.0,
        }
    }

    fn op_name(self) -> &'static str {
        match self {
            Workload::RecordsDurable => "visit (enroll + auth + read + verify)",
            _ => "diagnosis",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(1.0..=60.0).contains(&s) {
                    return Err("--seconds must be in 1..=60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: clinicbench --workload <clinic_diagnose|records_durable|oneway_lossy> \
                 --seed <n> --seconds <1..60> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if run(&args) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One load phase of the workload.
fn load(args: &Args, stack: &Stack, inputs: &Inputs, cursor: &Cursor, part: Part) -> Phase {
    match args.workload {
        Workload::ClinicDiagnose => {
            // The schedule covers the whole run; a traced run sends its
            // first half untraced and its second half traced.
            let n = inputs.arrivals.len();
            let half = inputs.arrivals.partition_point(|&t| t < args.seconds / 2.0);
            let range = match part {
                Part::Whole => 0..n,
                Part::Untraced => 0..half,
                Part::Traced => half..n,
            };
            drive::clinic_diagnose(stack, inputs, range)
        }
        Workload::RecordsDurable => {
            let visits = (args.seconds * VISITS_PER_SECOND).round() as u64;
            let range = match part {
                Part::Whole => 0..visits,
                Part::Untraced => 0..visits / 2,
                Part::Traced => visits / 2..visits,
            };
            drive::records_durable(stack, inputs, range, part == Part::Traced)
        }
        Workload::OnewayLossy => {
            let seconds = match part {
                Part::Whole => args.seconds,
                Part::Untraced | Part::Traced => args.seconds / 2.0,
            };
            drive::oneway_lossy(stack, inputs, cursor, seconds)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Whole,
    Untraced,
    Traced,
}

/// End-to-end figures of one phase.
struct EndToEnd {
    p50_ms: f64,
    tail_ms: f64,
    tail_pct: f64,
    p75_ms: f64,
    p90_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    samples: usize,
    ops_per_s: f64,
    uplink_kib: f64,
}

impl EndToEnd {
    fn of(workload: Workload, phase: &Phase) -> Self {
        let n = phase.op_ms.len();
        let tail_pct = tail_percentile(workload.nominal_tail(), n);
        Self {
            p50_ms: median(&phase.op_ms),
            tail_ms: percentile(&phase.op_ms, tail_pct),
            tail_pct,
            p75_ms: percentile(&phase.op_ms, 75.0),
            p90_ms: percentile(&phase.op_ms, 90.0),
            p95_ms: percentile(&phase.op_ms, 95.0),
            p99_ms: percentile(&phase.op_ms, 99.0),
            samples: n,
            ops_per_s: n as f64 / phase.elapsed_s,
            uplink_kib: phase.uplink_bytes as f64 / n.max(1) as f64 / 1024.0,
        }
    }
}

fn run(args: &Args) -> bool {
    let workload = args.workload;
    println!(
        "clinicbench: workload {} seed {} seconds {} trace {} nproc {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stack::nproc()
    );
    let inputs = Inputs::generate(workload, args.seed, args.seconds);
    println!("{}", inputs.describe(workload));
    let dirs = match DataDirs::fresh(workload.name()) {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("error: cannot create the data directory: {e}");
            return false;
        }
    };
    if workload == Workload::RecordsDurable {
        stack::prepopulate(&dirs, &inputs);
    }
    let rss_base = Rss::reset();
    let cpu_base = CpuTimes::now();

    let mut setups = Vec::new();
    let mut recovers = Vec::new();
    let mut built: Option<Stack> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = built.take() {
            previous.retire();
        }
        let (stack, timing) = stack::build(&dirs, &inputs);
        setups.push(timing.total_s);
        recovers.push(timing.recover_s);
        built = Some(stack);
    }
    let stack = built.expect("at least one set-up");
    let setup_rss_mb = Rss::peak() - rss_base;

    let cursor = Cursor::default();
    let before = Exposition::read(&stack);
    let (untraced, traced, spans, mark_exposition) = if args.trace {
        let untraced = load(args, &stack, &inputs, &cursor, Part::Untraced);
        let mark = Mark::now(&stack);
        let at_mark = Exposition::read(&stack);
        let traced = load(args, &stack, &inputs, &cursor, Part::Traced);
        let spans = mark.spans(&stack);
        (untraced, Some(traced), Some(spans), Some(at_mark))
    } else {
        (
            load(args, &stack, &inputs, &cursor, Part::Whole),
            None,
            None,
            None,
        )
    };
    let after = Exposition::read(&stack);
    let run_rss_mb = Rss::peak() - rss_base;
    let steal_pct = cpu_base
        .zip(CpuTimes::now())
        .map(|(base, now)| now.steal_pct_since(base));
    let final_lag = stack.pair.status().shipper.lag_bytes;
    let delta = after.since(&before);
    stack.retire();

    let e2e_untraced = EndToEnd::of(workload, &untraced);
    let e2e_traced = traced.as_ref().map(|t| EndToEnd::of(workload, t));
    let traced_phase_delta = mark_exposition.map(|m| after.since(&m));
    let mut all = untraced;
    if let Some(traced) = traced {
        all.merge(traced);
    }
    let attempted = all.requests_attempted;
    let mut failed = all.requests_failed;

    // --- Gates: correctness, durability, layer isolation. ---
    let mut problems = std::mem::take(&mut all.failures);
    let mismatches = checks::oracle_mismatches(&inputs, &all.diagnosed);
    if !mismatches.is_empty() {
        problems.push(format!(
            "{} diagnosis replies differ from AnalysisServer::analyze (inputs {:?}...)",
            mismatches.len(),
            &mismatches[..mismatches.len().min(5)]
        ));
    }
    failed += mismatches.len() as u64;
    let count_error_pct = checks::count_error_pct(&inputs, &all.diagnosed);
    if workload != Workload::RecordsDurable && count_error_pct > COUNT_ERROR_GATE_PCT {
        problems.push(format!(
            "median count error {count_error_pct:.1}% exceeds {COUNT_ERROR_GATE_PCT}%"
        ));
    }
    if final_lag != 0 {
        problems.push(format!("replica lag ended at {final_lag} bytes, not 0"));
    }
    if workload == Workload::RecordsDurable {
        problems.extend(stack::check_durable(&dirs, &inputs, &all.acked));
    }
    let mut guards = Vec::new();
    let mut guard = |name: &str, value: u64| {
        guards.push(format!("{name} = {value}"));
        if value != 0 {
            problems.push(format!("isolation guard: {name} = {value}, must be 0"));
        }
    };
    match workload {
        Workload::ClinicDiagnose => {
            guard("wal.appends", delta.wal_appends);
            guard("fountain.symbols_received", delta.fountain_symbols);
            guard("cache.hits", delta.cache_hits);
        }
        Workload::OnewayLossy => {
            guard("wal.appends", delta.wal_appends);
            guard("cache.hits", delta.cache_hits);
        }
        Workload::RecordsDurable => guard("fountain.symbols_received", delta.fountain_symbols),
    }
    dirs.remove();
    let correct = problems.is_empty() && attempted > 0 && e2e_untraced.samples > 0;

    // --- Report. ---
    let mut out = String::new();
    let _ = writeln!(
        out,
        "set-up: median {:.4} s over {SETUP_REPEATS} builds, store recovery median {:.4} s",
        median(&setups),
        median(&recovers)
    );
    let _ = writeln!(
        out,
        "memory: run_rss_mb {run_rss_mb:.3} MiB (peak RSS added by set-up and the run), of which set-up {setup_rss_mb:.3} MiB"
    );
    if let Some(steal) = steal_pct {
        let _ = writeln!(
            out,
            "host: {steal:.1}% of CPU time stolen by the hypervisor during set-up and load"
        );
    }
    let _ = writeln!(out, "isolation guards: {}", guards.join(", "));
    let _ = writeln!(
        out,
        "requests: {attempted} attempted, {failed} failed, failed_share {}",
        failed as f64 / attempted.max(1) as f64
    );
    for p in &problems {
        let _ = writeln!(out, "FAIL: {p}");
    }
    let untraced_label = if args.trace {
        "untraced phase"
    } else {
        "untraced"
    };
    print_e2e(
        &mut out,
        workload,
        untraced_label,
        &e2e_untraced,
        &all.kind_ms,
        count_error_pct,
    );
    if let (Some(spans), Some(t), Some(d)) = (&spans, &e2e_traced, &traced_phase_delta) {
        print_e2e(
            &mut out,
            workload,
            "traced phase",
            t,
            &Default::default(),
            count_error_pct,
        );
        let _ = writeln!(
            out,
            "tracing overhead: traced p50 {:.3} ms vs untraced {:.3} ms ({:+.1}%)",
            t.p50_ms,
            e2e_untraced.p50_ms,
            (t.p50_ms / e2e_untraced.p50_ms - 1.0) * 100.0
        );
        if workload == Workload::RecordsDurable {
            let _ = writeln!(
                out,
                "  (the traced half also scans the {} aliases the untraced half enrolled)",
                e2e_untraced.samples
            );
        }
        let replay = layers::replay(workload, &inputs, &all.acked);
        let layer = per_layer(workload, spans, d, &replay, &recovers, &all);
        print_layers(&mut out, &layer);
        if workload == Workload::ClinicDiagnose {
            print_blocking_path(&mut out, spans, &replay, &all, t.p50_ms);
        }
        let _ = writeln!(
            out,
            "span ring: {} spans of {} traces in the traced phase, wrapped: {}",
            spans.spans, spans.traces, spans.wrapped
        );
        print!("{out}");
        let metrics: Vec<(String, f64, &str)> = layer
            .into_iter()
            .filter(|m| m.in_json)
            .map(|m| (m.name.to_string(), m.value.unwrap_or(0.0), m.unit))
            .collect();
        println!("{}", result_json(correct, attempted, failed, &metrics));
    } else {
        print!("{out}");
        let metrics = vec![
            ("setup_s".to_string(), median(&setups), "s"),
            ("op_p50_ms".to_string(), e2e_untraced.p50_ms, "ms"),
            // The tail, p75 and ops/s are printed above but not reported
            // here: on a shared 2-vCPU host their run-to-run spread reaches
            // or exceeds the largest bound the benchmark may set (see
            // README.md, "Steadiness").
            (
                "uplink_kib_per_op".to_string(),
                e2e_untraced.uplink_kib,
                "KiB",
            ),
        ];
        println!("{}", result_json(correct, attempted, failed, &metrics));
    }
    correct
}

fn print_e2e(
    out: &mut String,
    workload: Workload,
    label: &str,
    e: &EndToEnd,
    kinds: &std::collections::BTreeMap<&str, Vec<f64>>,
    count_error_pct: f64,
) {
    let _ = writeln!(
        out,
        "end to end ({label}), operation = {}:",
        workload.op_name()
    );
    let _ = writeln!(out, "  op_p50_ms          {:.4} ms", e.p50_ms);
    let _ = writeln!(
        out,
        "  op_tail_ms         {:.4} ms (p{} of {} samples)",
        e.tail_ms, e.tail_pct, e.samples
    );
    let _ = writeln!(
        out,
        "  op percentiles     p75 {:.4}  p90 {:.4}  p95 {:.4}  p99 {:.4} ms",
        e.p75_ms, e.p90_ms, e.p95_ms, e.p99_ms
    );
    let _ = writeln!(out, "  ops_per_s          {:.4} 1/s", e.ops_per_s);
    let _ = writeln!(out, "  uplink_kib_per_op  {:.3} KiB", e.uplink_kib);
    if workload != Workload::RecordsDurable {
        let _ = writeln!(out, "  count_error_pct    {count_error_pct:.3} %");
    }
    for (kind, samples) in kinds {
        let tail = tail_percentile(workload.nominal_tail(), samples.len());
        let _ = writeln!(
            out,
            "  {kind}_p50_ms {:.4} ms, {kind}_tail_ms {:.4} ms (p{tail} of {})",
            median(samples),
            percentile(samples, tail),
            samples.len()
        );
    }
}

/// One per-layer metric: its value (None when the layer is off this
/// workload's path), unit, the end-to-end metric it should move, and
/// whether the JSON reports it. The JSON leaves out metrics that exist on
/// one workload's path alone, and guard counters that read 0 on every
/// registered workload (sheds, rate limits, cache hits, contended writes,
/// replica lag and ship failures, live fountain symbols and evictions):
/// no optimisation can move them, and the table still prints them.
struct LayerMetric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    moves: &'static str,
    in_json: bool,
}

/// Every per-layer metric of the traced phase, with the end-to-end metric
/// each should move. `d` is the program's counter growth over the traced
/// phase; `run` holds the benchmark's own wrapper timings.
fn per_layer(
    workload: Workload,
    spans: &Spans,
    d: &Exposition,
    replay: &Replay,
    recovers: &[f64],
    run: &Phase,
) -> Vec<LayerMetric> {
    let requests = (d.accepted.max(1)) as f64;
    let writes = d.wal_appends as f64;
    let per_write = |v: f64| if writes > 0.0 { v / writes } else { 0.0 };
    let m = |name, value: Option<f64>, unit, moves, in_json| LayerMetric {
        name,
        value,
        unit,
        moves,
        in_json,
    };
    let diagnose = workload != Workload::RecordsDurable;
    let durable = workload == Workload::RecordsDurable;
    let tail = workload.nominal_tail();
    vec![
        m(
            "phone.encode_ms",
            spans.p50(Stage::PhoneEncode),
            "ms",
            "op_p50 (clinic_diagnose)",
            true,
        ),
        m(
            "phone.compress_ms",
            Some(replay.compress_ms),
            "ms",
            "op_p50, uplink_kib (oneway_lossy)",
            true,
        ),
        m(
            "phone.compress_ratio",
            Some(replay.compress_ratio),
            "ratio",
            "uplink_kib (oneway_lossy)",
            true,
        ),
        m(
            "phone.reply_decode_ms",
            spans.p50(Stage::ReplyDecode),
            "ms",
            "op_p50 (clinic_diagnose)",
            true,
        ),
        m(
            "wire.request_decode_ms",
            Some(replay.wire_decode_ms),
            "ms",
            "op_p50 (clinic_diagnose)",
            true,
        ),
        m(
            "wire.decompress_ms",
            Some(replay.decompress_ms),
            "ms",
            "op_p50 (oneway_lossy)",
            true,
        ),
        m(
            "gateway.queue_wait_ms",
            spans.p50(Stage::Queue),
            "ms",
            "op_tail (clinic_diagnose, records_durable)",
            true,
        ),
        m(
            "gateway.queue_wait_tail_ms",
            spans.pct(Stage::Queue, tail),
            "ms",
            "op_tail (all)",
            true,
        ),
        m(
            "gateway.service_ms",
            spans.p50(Stage::Service),
            "ms",
            "op_p50 (all)",
            true,
        ),
        m(
            "gateway.shed_share",
            Some(d.rejected as f64 / (d.accepted + d.rejected).max(1) as f64),
            "ratio",
            "failed (all)",
            false,
        ),
        m(
            "gateway.rate_limited",
            Some(d.rate_limited as f64),
            "count",
            "failed (all)",
            false,
        ),
        m(
            "cloud.analysis_ms",
            spans.p50(Stage::Analysis),
            "ms",
            "op_p50 (clinic_diagnose)",
            true,
        ),
        m(
            "cloud.cache_hit_ratio",
            Some(d.cache_hits as f64 / (d.cache_hits + d.cache_misses).max(1) as f64),
            "ratio",
            "op_p50 (must be 0 on diagnose workloads)",
            false,
        ),
        m(
            "cloud.cache_digest_ms",
            Some(replay.cache_digest_ms),
            "ms",
            "op_p50 (clinic_diagnose)",
            true,
        ),
        m(
            "cloud.authenticate_ms",
            Some(replay.authenticate_ms),
            "ms",
            "auth p50 within op_p50 (records_durable)",
            true,
        ),
        m(
            "cloud.shard_lock_wait_ms",
            durable.then(|| spans.p50(Stage::ShardLock)).flatten(),
            "ms",
            "op_tail (records_durable)",
            false,
        ),
        m(
            "cloud.contended_write_share",
            Some(d.contended_writes as f64 / d.write_acquisitions.max(1) as f64),
            "ratio",
            "op_tail (records_durable)",
            false,
        ),
        m(
            "dsp.detrend_ms",
            Some(replay.detrend_ms),
            "ms",
            "op_p50 (clinic_diagnose)",
            true,
        ),
        m(
            "dsp.detect_ms",
            Some(replay.detect_ms),
            "ms",
            "op_p50 (clinic_diagnose)",
            true,
        ),
        m(
            "dsp.features_ms",
            Some(replay.features_ms),
            "ms",
            "op_p50 (clinic_diagnose)",
            true,
        ),
        m(
            "dsp.peaks_per_req",
            Some(replay.peaks),
            "count",
            "op_p50 (clinic_diagnose)",
            true,
        ),
        m(
            "store.append_ms",
            durable.then(|| spans.p50(Stage::WalAppend)).flatten(),
            "ms",
            "op_p50 (records_durable)",
            false,
        ),
        m(
            "store.fsync_ms",
            durable.then(|| spans.p50(Stage::WalFsync)).flatten(),
            "ms",
            "op_p50 (records_durable)",
            false,
        ),
        m(
            "store.appends_per_req",
            Some(writes / requests),
            "count",
            "op_p50 (records_durable)",
            true,
        ),
        m(
            "store.fsyncs_per_write",
            Some(per_write(d.wal_fsyncs as f64)),
            "count",
            "op_p50 (records_durable)",
            true,
        ),
        m(
            "store.bytes_per_write",
            Some(per_write(d.wal_bytes as f64)),
            "B",
            "op_p50 (records_durable)",
            true,
        ),
        m(
            "store.snapshots_per_1k_writes",
            Some(per_write(d.wal_snapshots as f64) * 1000.0),
            "count",
            "op_tail (records_durable)",
            true,
        ),
        m(
            "store.recover_s",
            Some(median(recovers)),
            "s",
            "setup_s (records_durable)",
            true,
        ),
        m(
            "replica.ship_ms",
            durable.then(|| spans.p50(Stage::Replication)).flatten(),
            "ms",
            "op_p50 (records_durable)",
            false,
        ),
        m(
            "replica.lag_bytes_max",
            Some(run.lag_bytes_max as f64),
            "B",
            "failed (records_durable)",
            false,
        ),
        m(
            "replica.ship_failures",
            Some(d.ship_failures as f64),
            "count",
            "failed (records_durable)",
            false,
        ),
        m(
            "fountain.encode_ms",
            Some(replay.fountain_encode_ms),
            "ms",
            "op_p50 (oneway_lossy)",
            true,
        ),
        m(
            "fountain.decode_ms",
            Some(replay.fountain_decode_ms),
            "ms",
            "op_p50 (oneway_lossy)",
            true,
        ),
        m(
            "fountain.ingest_ms",
            (workload == Workload::OnewayLossy)
                .then(|| spans.p50(Stage::FountainDecode))
                .flatten(),
            "ms",
            "op_p50 (oneway_lossy)",
            false,
        ),
        m(
            "fountain.symbols_per_req",
            Some(d.fountain_symbols as f64 / requests),
            "count",
            "uplink_kib (oneway_lossy)",
            false,
        ),
        m(
            "fountain.replay_symbols_per_req",
            Some(replay.fountain_symbols),
            "count",
            "uplink_kib (oneway_lossy)",
            true,
        ),
        m(
            "fountain.overhead_ratio",
            Some(replay.fountain_overhead),
            "ratio",
            "uplink_kib (oneway_lossy)",
            true,
        ),
        m(
            "fountain.sessions_evicted",
            Some(d.fountain_evicted as f64),
            "count",
            "failed (oneway_lossy)",
            false,
        ),
        m(
            "sensor.decrypt_ms",
            diagnose.then(|| median(&run.decrypt_ms)),
            "ms",
            "op_p50 (clinic_diagnose, oneway_lossy)",
            false,
        ),
        m(
            "gen.lag_ms",
            (workload == Workload::ClinicDiagnose).then(|| median(&run.lag_ms)),
            "ms",
            "op_p50, op_tail (clinic_diagnose)",
            false,
        ),
        m(
            "telemetry.spans_per_req",
            Some(spans.spans as f64 / spans.traces.max(1) as f64),
            "count",
            "op_p50 (all)",
            true,
        ),
        m(
            "telemetry.ring_wrapped",
            Some(f64::from(u8::from(spans.wrapped))),
            "count",
            "(exposition health)",
            true,
        ),
    ]
}

fn print_layers(out: &mut String, metrics: &[LayerMetric]) {
    let _ = writeln!(out, "per layer (traced phase):");
    for metric in metrics {
        let value = metric
            .value
            .map_or("n/a (layer not on this workload's path)".to_string(), |v| {
                format!("{v:.6}")
            });
        let _ = writeln!(
            out,
            "  {:32} {:>14} {:6} -> {}",
            metric.name, value, metric.unit, metric.moves
        );
    }
}

/// The blocking steps of one diagnosis, each as its median, set against
/// the end-to-end median; the rest is printed as unattributed.
fn print_blocking_path(out: &mut String, spans: &Spans, replay: &Replay, run: &Phase, p50_ms: f64) {
    let span = |stage| spans.p50(stage).unwrap_or(0.0);
    let analysis = span(Stage::Analysis);
    let service = span(Stage::Service);
    let steps = [
        ("sender lag", median(&run.lag_ms)),
        ("phone encode", span(Stage::PhoneEncode)),
        (
            "uplink + admission",
            span(Stage::Uplink) + span(Stage::Admission),
        ),
        ("queue wait", span(Stage::Queue)),
        ("wire decode (replay)", replay.wire_decode_ms),
        ("cache digest (replay)", replay.cache_digest_ms),
        ("analysis", analysis),
        (
            "rest of service",
            (service - analysis - replay.wire_decode_ms - replay.cache_digest_ms).max(0.0),
        ),
        ("reply decode", span(Stage::ReplyDecode)),
        ("decrypt", median(&run.decrypt_ms)),
    ];
    let _ = writeln!(out, "blocking path of a diagnosis (medians, traced phase):");
    let mut sum = 0.0;
    for (name, v) in steps {
        sum += v;
        let _ = writeln!(out, "  {name:22} {v:9.3} ms  {:5.1}%", v / p50_ms * 100.0);
    }
    let _ = writeln!(
        out,
        "  {:22} {sum:9.3} ms of op_p50_ms {p50_ms:.3} ms; unattributed {:.3} ms",
        "sum",
        p50_ms - sum
    );
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
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
