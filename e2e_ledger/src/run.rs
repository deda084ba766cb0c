//! The untraced run: five cold starts, warm-up, then a fixed number of
//! timed closed-loop rounds, with every round checked.

use std::time::{Duration, Instant};

use dptd_engine::LoadGen;
use dptd_protocol::message::StampedReport;

use crate::host::{self, Calibration};
use crate::json::Metric;
use crate::scratch::Scratch;
use crate::spec::{self, Deployment, Workload, MAE_BOUND, SETUP_WORLDS, WARMUP_ROUNDS};
use crate::stats;
use crate::worlds::{
    ClusterWorld, EngineLog, EngineWorld, RoundSummary, ServedWorld, Shape, World,
};

/// Faults a test can ask a run to commit, to prove the run then fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Pretend the last round reported a digest the final state does not
    /// hold.
    WrongDigest,
    /// Count one operation as failed.
    FailedOp,
}

#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    pub inject: Option<Inject>,
    /// Internal: stop after the cold start of this world and report its
    /// time (one of the run's set-up samples, taken in a child process).
    pub setup_world: Option<usize>,
}

/// What one run measured and whether it was correct.
#[derive(Debug, Default)]
pub struct RunReport {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is incorrect; empty when every check passed.
    pub errors: Vec<String>,
    pub weights_digest: u64,
    /// Extra facts for the result file and the console, not gated.
    pub notes: Vec<(&'static str, String)>,
    /// Per-round samples, for the result file only.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

/// Build world number `index` of `workload`: fresh directories, fresh
/// campaign id.
pub fn build_world(
    workload: &Workload,
    shape: &Shape,
    scratch: &Scratch,
    index: usize,
) -> Result<Box<dyn World>, String> {
    let tag = format!("w{index}");
    let campaign = format!("{}-{}-{tag}", workload.name, std::process::id());
    Ok(match workload.deployment {
        Deployment::Engine => Box::new(EngineWorld::start(shape, EngineLog::None)?),
        Deployment::Served { durable, mode, .. } => {
            let durable = durable
                .then(|| scratch.fresh(&tag).map(|dir| (dir, workload.store())))
                .transpose()?;
            Box::new(ServedWorld::start(shape, &campaign, durable, mode)?)
        }
        Deployment::Cluster { chunk } => Box::new(ClusterWorld::start(
            shape,
            &campaign,
            &scratch.fresh(&tag)?,
            true,
            chunk,
        )?),
    })
}

/// The per-round invariants: every submitted report is accounted for,
/// nobody was refused, and the truths are near the generator's.
pub fn check_round(
    gen: &LoadGen,
    epoch: u64,
    submitted: usize,
    round: &RoundSummary,
) -> Result<(), String> {
    if round.refused != 0 {
        return Err(format!(
            "round {epoch}: {} users refused for budget",
            round.refused
        ));
    }
    let accounted = round.accepted + round.duplicates + round.late;
    if accounted != submitted as u64 {
        return Err(format!(
            "round {epoch}: accepted {} + duplicates {} + late {} != submitted {submitted}",
            round.accepted, round.duplicates, round.late
        ));
    }
    let truths = gen.ground_truths(epoch);
    if truths.len() != round.truths.len() {
        return Err(format!(
            "round {epoch}: {} truths for {} objects",
            round.truths.len(),
            truths.len()
        ));
    }
    let mae = truths
        .iter()
        .zip(&round.truths)
        .map(|(t, e)| (t - e).abs())
        .sum::<f64>()
        / truths.len() as f64;
    if mae.is_nan() || mae > MAE_BOUND {
        return Err(format!(
            "round {epoch}: truths are {mae:.4} from ground truth on average (bound {MAE_BOUND})"
        ));
    }
    Ok(())
}

/// One submit-then-close round, timed. The reports are already
/// materialised: the generator never sits inside a window.
pub struct TimedRound {
    pub submit: Duration,
    pub close: Duration,
    pub cpu: Duration,
    pub frames: u64,
    pub summary: RoundSummary,
}

pub fn timed_round(
    world: &mut dyn World,
    epoch: u64,
    mut reports: Vec<StampedReport>,
) -> Result<TimedRound, String> {
    let frames = world.frames(&reports);
    let cpu0 = host::process_cpu();
    let t0 = Instant::now();
    world.submit(&mut reports)?;
    let t1 = Instant::now();
    let summary = world.close(epoch)?;
    let t2 = Instant::now();
    let cpu = host::process_cpu().saturating_sub(cpu0);
    // Whatever the world did not take is freed here, off the clock.
    drop(reports);
    Ok(TimedRound {
        submit: t1 - t0,
        close: t2 - t1,
        cpu,
        frames,
        summary,
    })
}

/// Build world `index`, submit and close a pre-generated round 0, and
/// return how long that took.
fn cold_start(
    workload: &Workload,
    shape: &Shape,
    scratch: &Scratch,
    gen: &LoadGen,
    index: usize,
) -> Result<(f64, Box<dyn World>), String> {
    let mut round0 = gen.epoch_reports(0);
    let submitted = round0.len();
    let t0 = Instant::now();
    let mut world = build_world(workload, shape, scratch, index)?;
    world.submit(&mut round0)?;
    let first = world.close(0)?;
    let cold_start_s = t0.elapsed().as_secs_f64();
    check_round(gen, 0, submitted, &first)?;
    Ok((cold_start_s, world))
}

/// One more cold start, in a process of its own.
fn cold_start_in_child(workload: &Workload, opts: RunOptions, index: usize) -> Result<f64, String> {
    let mut extra = crate::child_args(opts.seed, opts.seconds, opts.smoke);
    extra.extend(["--setup-world".to_string(), index.to_string()]);
    let stdout = crate::run_child(workload.name, &extra)?;
    stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("setup_sample: "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("set-up world {index} reported no time:\n{stdout}"))
}

pub fn run(workload: &Workload, opts: RunOptions, scratch: &Scratch) -> RunReport {
    let mut report = RunReport::default();
    if let Err(e) = drive(workload, opts, scratch, &mut report) {
        report.failed += 1;
        report.errors.push(e);
    }
    if opts.inject == Some(Inject::FailedOp) {
        report.failed += 1;
    }
    if report.failed > 0 && report.errors.is_empty() {
        report
            .errors
            .push(format!("{} operations failed", report.failed));
    }
    report.attempted = report.attempted.max(1);
    report
}

fn drive(
    workload: &Workload,
    opts: RunOptions,
    scratch: &Scratch,
    report: &mut RunReport,
) -> Result<(), String> {
    let timed_rounds = workload.timed_rounds(opts.smoke, opts.seconds);
    let last_epoch = WARMUP_ROUNDS + timed_rounds;
    let shape = workload.shape(opts.smoke, last_epoch + 1);
    let gen = LoadGen::new(workload.load(opts.smoke, opts.seed, last_epoch + 1))
        .map_err(|e| format!("load generator: {e}"))?;

    // Set-up: cold start to first truths. Every sample is a fresh world
    // in a fresh process — the others are re-executions of this binary
    // that stop after round 0 — so each pays what a cold start pays and
    // none leaves allocator state behind in the process that goes on to
    // be measured. Round 0 is generated before the clock starts.
    let mut setup_s = Vec::with_capacity(SETUP_WORLDS);
    if let Some(index) = opts.setup_world {
        let (cold_start_s, world) = cold_start(workload, &shape, scratch, &gen, index)?;
        world.finish()?;
        report.attempted += 1;
        report
            .notes
            .push(("setup_sample", format!("{cold_start_s}")));
        return Ok(());
    }
    for index in 1..SETUP_WORLDS {
        setup_s.push(cold_start_in_child(workload, opts, index)?);
    }
    let (cold_start_s, mut world) = cold_start(workload, &shape, scratch, &gen, 0)?;
    setup_s.push(cold_start_s);

    let mut calib = Calibration::new();
    let mut timed = Vec::new();
    let mut peak_mb = Vec::new();
    let mut vm_hwm_mb = 0.0f64;
    let digest_epoch = spec::digest_epoch(workload, opts.smoke, opts.seconds);
    let mut last_digest = 0;
    for epoch in 1..=last_epoch {
        let reports = gen.epoch_reports(epoch);
        let submitted = reports.len();
        calib.probe();
        // The high-water mark is restarted every round, so each round
        // reports its own peak; the whole-process mark is the largest
        // reading taken before a restart.
        vm_hwm_mb = vm_hwm_mb.max(host::peak_rss_mb()?);
        host::reset_peak_rss()?;
        let round = timed_round(world.as_mut(), epoch, reports)?;
        check_round(&gen, epoch, submitted, &round.summary)?;
        last_digest = round.summary.weights_digest;
        if epoch == digest_epoch {
            report.weights_digest = last_digest;
        }
        if epoch > WARMUP_ROUNDS {
            report.attempted += round.frames + 1;
            peak_mb.push(host::peak_rss_mb()?);
            timed.push((submitted as f64, round));
        }
    }

    calib.probe();
    let last = world.finish()?;
    if opts.inject == Some(Inject::WrongDigest) {
        last_digest = !last_digest;
    }
    if last.weights_digest != last_digest {
        return Err(format!(
            "final digest {:016x} differs from the last round's {last_digest:016x}",
            last.weights_digest
        ));
    }

    // The whole-process high-water mark depends on which allocator arena
    // each of the engine's short-lived threads happened to land in, and
    // differs by a tenth between identical runs; the average round's own
    // peak does not. (The mean, not the median: on the sparse workload
    // the peak alternates between two levels from round to round, and a
    // median would report whichever level had one round more.) The
    // whole-process mark is kept as a note.
    vm_hwm_mb = vm_hwm_mb.max(host::peak_rss_mb()?);
    let peak_rss_mb = peak_mb.iter().sum::<f64>() / peak_mb.len() as f64;

    // Every timed round counts: the work measured is the same on every
    // run. The reference kernel only annotates — `quiet_rounds` says how
    // many rounds ran between two undisturbed probes.
    let quiet = calib.quiet_intervals();
    let quiet_rounds = quiet[WARMUP_ROUNDS as usize..]
        .iter()
        .filter(|&&q| q)
        .count();
    let series = |f: fn(&TimedRound) -> Duration, scale: f64| -> Vec<f64> {
        timed
            .iter()
            .map(|(_, round)| f(round).as_secs_f64() * scale)
            .collect()
    };
    let submit_s = series(|r| r.submit, 1.0);
    let close_ms = series(|r| r.close, 1e3);
    let cpu_ms = series(|r| r.cpu, 1e3);
    let reports_timed: f64 = timed.iter().map(|(submitted, _)| submitted).sum();
    let window_s: f64 = submit_s.iter().sum::<f64>() + close_ms.iter().sum::<f64>() / 1e3;
    let metric = |name, value, unit| Metric { name, value, unit };
    report.metrics = vec![
        metric("throughput_rps", reports_timed / window_s, "1/s"),
        metric("close_ms_p50", stats::median(&close_ms), "ms"),
        metric(
            "cpu_ns_per_report",
            cpu_ms.iter().sum::<f64>() * 1e6 / reports_timed,
            "ns",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("setup_s", stats::median(&setup_s), "s"),
    ];
    report.series = vec![
        ("submit_ms", submit_s.iter().map(|s| s * 1e3).collect()),
        ("close_ms", close_ms.clone()),
        ("cpu_ms", cpu_ms),
        ("round_peak_mb", peak_mb.clone()),
        ("calib_ms", calib.samples_ms().to_vec()),
        (
            "quiet",
            quiet.iter().map(|&q| f64::from(u8::from(q))).collect(),
        ),
    ];
    report.notes = vec![
        ("digest_epoch", digest_epoch.to_string()),
        ("final_digest", format!("{:016x}", last.weights_digest)),
        ("timed_rounds", timed_rounds.to_string()),
        ("warmup_rounds", WARMUP_ROUNDS.to_string()),
        ("quiet_rounds", format!("{quiet_rounds} of {}", timed.len())),
        ("reports_timed", reports_timed.to_string()),
        ("window_s", format!("{window_s:.3}")),
        (
            "submit_ms_p50",
            format!("{:.3}", stats::median(&submit_s) * 1e3),
        ),
        (
            "close_ms_hi",
            stats::highest_supported_percentile(&close_ms).map_or_else(
                || "n/a".to_string(),
                |(v, pct)| format!("{v:.3} (p{pct:.0})"),
            ),
        ),
        (
            "setup_s_samples",
            setup_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("calib_ms_p50", format!("{:.3}", calib.median_ms())),
        ("vm_hwm_mb", format!("{vm_hwm_mb:.1}")),
    ];
    Ok(())
}
