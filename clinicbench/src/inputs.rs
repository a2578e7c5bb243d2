//! Seeded inputs for every workload, generated before set-up and never
//! timed. The same `--seed` yields the same inputs; [`Inputs::describe`]
//! prints their properties and a digest so two commits can be shown to
//! have run identical inputs.

use crate::stats::Digest;
use crate::Workload;
use medsen::audit::AuditRng;
use medsen::cloud::auth::BeadSignature;
use medsen::cloud::service::Request;
use medsen::cloud::trace_digest;
use medsen::gateway::wire::encode_upload_traced;
use medsen::gateway::SessionConfig;
use medsen::impedance::{Channel, PulseSpec, SignalTrace, TraceSynthesizer};
use medsen::microfluidics::{
    ChannelGeometry, ParticleKind, PeristalticPump, SampleSpec, TransportSimulator,
};
use medsen::phone::{OneWayUploader, SymbolBudget};
use medsen::sensor::{Controller, ControllerConfig, EncryptedAcquisition};
use medsen::units::{Microliters, Seconds};

/// Offered load of the open-loop diagnose workload (requests per second).
pub const DIAGNOSE_RATE: f64 = 12.0;
/// Seed of the open-loop arrival schedule, shared by every run.
const SCHEDULE_SEED: u64 = 0x5C4E_D01E;
/// Symbol drop rate of the one-way link.
pub const ONEWAY_DROP: f64 = 0.3;
/// Enrolled aliases already on disk when `records_durable` sets up.
pub const POPULATION: usize = 10_000;
/// Bead counts of the authenticating users: each differs from every
/// other by more than the auth tolerance (30 %), so each measured
/// signature matches exactly its owner.
pub const USER_BEADS: [u64; 4] = [2, 3, 5, 8];
/// Distinct bead traces rendered per user; later uses perturb them.
const BEAD_TRACES_PER_USER: usize = 16;

/// The bead kind that authenticating users' passwords carry; population
/// aliases carry a different one, so they can never match a user's
/// measured signature yet are still scanned by every `authenticate`.
pub const USER_BEAD: ParticleKind = ParticleKind::Bead358;
const ALIAS_BEAD: ParticleKind = ParticleKind::Bead78;

/// One encrypted acquisition: the request the phone sends plus the key
/// material only the dongle holds.
pub struct Diagnosis {
    pub request: Request,
    pub controller: Controller,
    /// Dip-delay compensation for the decryptor.
    pub delay: Seconds,
    pub true_total: usize,
    /// Bytes of the framed binary upload carrying `request`.
    pub upload_bytes: usize,
}

impl Diagnosis {
    pub fn trace(&self) -> &SignalTrace {
        match &self.request {
            Request::Analyze { trace, .. } => trace,
            _ => unreachable!("diagnoses are analyze requests"),
        }
    }

    /// The decrypted particle count the phone shows for `report`.
    pub fn decrypt(&self, report: &medsen::cloud::PeakReport) -> u64 {
        self.controller
            .decryptor_with_delay(self.delay)
            .decrypt(&report.reported_peaks())
            .rounded()
    }
}

/// An authenticating user of `records_durable`.
pub struct BeadUser {
    pub id: String,
    pub beads: u64,
    pub traces: Vec<SignalTrace>,
    /// Framed upload bytes of an authenticated session on each trace.
    pub auth_upload_bytes: Vec<usize>,
}

impl BeadUser {
    pub fn signature(&self) -> BeadSignature {
        BeadSignature::from_counts(&[(USER_BEAD, self.beads)])
    }
}

pub struct Inputs {
    pub seed: u64,
    /// Encrypted acquisitions (`clinic_diagnose`, `oneway_lossy`).
    pub diagnoses: Vec<Diagnosis>,
    /// Open-loop send offsets in seconds, one per diagnosis.
    pub arrivals: Vec<f64>,
    pub users: Vec<BeadUser>,
    /// Aliases pre-populated on disk (`records_durable`).
    pub population: Vec<(String, BeadSignature)>,
    /// The trace the bead classifier is trained from during set-up.
    pub reference: SignalTrace,
    /// Wire bytes of one coded symbol on the one-way link.
    pub symbol_frame_bytes: usize,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Self {
        let mut rng = AuditRng::new(seed);
        let mut inputs = Self {
            seed,
            diagnoses: Vec::new(),
            arrivals: Vec::new(),
            users: Vec::new(),
            population: Vec::new(),
            reference: bead_trace(1, 8, 0.0),
            symbol_frame_bytes: symbol_frame_bytes(),
        };
        match workload {
            Workload::ClinicDiagnose => {
                // One fixed Poisson schedule for every seed: the traces
                // vary with the seed, the burst pattern does not, so the
                // tail measures the program rather than which bursts a
                // seed happened to draw.
                inputs.arrivals =
                    poisson_arrivals(&mut AuditRng::new(SCHEDULE_SEED), DIAGNOSE_RATE, seconds);
                let seeds: Vec<u64> = inputs.arrivals.iter().map(|_| rng.next_u64()).collect();
                inputs.diagnoses = acquisitions(&seeds, Seconds::new(60.0));
            }
            Workload::OnewayLossy => {
                // Sized above the closed loop's measured pace; a faster
                // program reuses acquisitions with perturbed content.
                let count = (seconds * 60.0).ceil() as usize;
                let seeds: Vec<u64> = (0..count).map(|_| rng.next_u64()).collect();
                inputs.diagnoses = acquisitions(&seeds, Seconds::new(5.0));
            }
            Workload::RecordsDurable => {
                inputs.users = USER_BEADS
                    .iter()
                    .enumerate()
                    .map(|(u, &beads)| {
                        let traces: Vec<SignalTrace> = (0..BEAD_TRACES_PER_USER)
                            .map(|_| bead_trace(rng.next_u64(), beads, rng.next_f64() * 0.05))
                            .collect();
                        let auth_upload_bytes = traces
                            .iter()
                            .map(|t| {
                                upload_bytes(&Request::Analyze {
                                    trace: t.clone(),
                                    authenticate: true,
                                })
                            })
                            .collect();
                        BeadUser {
                            id: format!("user-{seed}-{u}"),
                            beads,
                            traces,
                            auth_upload_bytes,
                        }
                    })
                    .collect();
                inputs.population = (0..POPULATION)
                    .map(|i| (format!("pop-{seed}-{i}"), alias_signature(&mut rng)))
                    .collect();
            }
        }
        inputs
    }

    /// Input properties and a digest over every input's content.
    pub fn describe(&self, workload: Workload) -> String {
        let mut digest = Digest::new();
        digest.add(self.seed);
        let mut lines = Vec::new();
        if !self.diagnoses.is_empty() {
            for d in &self.diagnoses {
                digest.add(trace_digest(d.trace()));
                digest.add(d.true_total as u64);
            }
            let first = self.diagnoses[0].trace();
            let bytes: usize = self.diagnoses.iter().map(|d| d.upload_bytes).sum();
            let particles: usize = self.diagnoses.iter().map(|d| d.true_total).sum();
            lines.push(format!(
                "traces {} x {} samples x {} carriers ({:.1} s), upload {:.1} KiB mean, {:.2} particles/trace",
                self.diagnoses.len(),
                first.len(),
                first.channels().len(),
                first.duration().value(),
                bytes as f64 / self.diagnoses.len() as f64 / 1024.0,
                particles as f64 / self.diagnoses.len() as f64,
            ));
        }
        if !self.arrivals.is_empty() {
            for a in &self.arrivals {
                digest.add(a.to_bits());
            }
            lines.push(format!(
                "open loop: {} arrivals at {DIAGNOSE_RATE}/s",
                self.arrivals.len()
            ));
        }
        if !self.users.is_empty() {
            for user in &self.users {
                digest.add_str(&user.id);
                for t in &user.traces {
                    digest.add(trace_digest(t));
                }
            }
            for (alias, sig) in &self.population {
                digest.add_str(alias);
                digest.add(sig.total());
            }
            let t = &self.users[0].traces[0];
            lines.push(format!(
                "{} users x {} bead traces ({} samples x {} carriers), bead counts {:?}, population {}",
                self.users.len(),
                BEAD_TRACES_PER_USER,
                t.len(),
                t.channels().len(),
                USER_BEADS,
                self.population.len()
            ));
        }
        lines.push(format!(
            "input digest {:016x} ({})",
            digest.value(),
            workload.name()
        ));
        lines.join("\n")
    }
}

/// `n = rate × seconds` arrivals spread as a Poisson process conditioned
/// on its count: exponential gaps rescaled to fill the window, so the
/// offered rate is identical across seeds while the burst pattern varies.
fn poisson_arrivals(rng: &mut AuditRng, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let gaps: Vec<f64> = (0..=n).map(|_| -(1.0 - rng.next_f64()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut t = 0.0;
    gaps[..n]
        .iter()
        .map(|g| {
            t += g;
            t / total * seconds
        })
        .collect()
}

/// Paper-default encrypted acquisitions of diluted blood, one per seed,
/// each under its own controller key schedule. Rendered on two threads.
fn acquisitions(seeds: &[u64], duration: Seconds) -> Vec<Diagnosis> {
    let half = seeds.len().div_ceil(2);
    std::thread::scope(|scope| {
        let workers: Vec<_> = seeds
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&s| acquisition(s, duration))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("input generation thread"))
            .collect()
    })
}

fn acquisition(seed: u64, duration: Seconds) -> Diagnosis {
    let geometry = ChannelGeometry::paper_default();
    let pump = PeristalticPump::paper_default();
    let blood = SampleSpec::whole_blood_dilution(Microliters::new(10.0), 20_000.0);
    let events = TransportSimulator::new(geometry, pump.clone(), seed).run(&blood, duration);
    let mut acq = EncryptedAcquisition::paper_default(seed);
    let mut controller = Controller::new(*acq.array(), ControllerConfig::paper_default(), seed);
    let schedule = controller.generate_schedule(duration).clone();
    let output = acq.run(&events, &schedule, duration);
    // Re-centre dips on their arrival period: the mean dip delay is half
    // the electrode-array span at the nominal velocity.
    let nominal_v = pump.velocity_at(Seconds::ZERO, geometry.pore_width, geometry.pore_height);
    let delay = Seconds::new(acq.array().span(&geometry).value() / (2.0 * nominal_v));
    let request = Request::Analyze {
        trace: output.trace.clone(),
        authenticate: false,
    };
    Diagnosis {
        upload_bytes: upload_bytes(&request),
        request,
        controller,
        delay,
        true_total: output.true_total(),
    }
}

/// Size of the upload a two-way session puts on the link for `request`.
/// The program counts no uplink bytes, so the benchmark rebuilds the
/// upload the way `DongleSession` frames it: a traced body in the wire
/// format of the session configuration the workloads connect with, behind
/// a traced upload header.
pub fn upload_bytes(request: &Request) -> usize {
    framed_upload(1, request).len()
}

pub fn framed_upload(session: u64, request: &Request) -> Vec<u8> {
    let wire = SessionConfig::reliable().wire;
    let trace = 0x5EED_0000_0000_0001;
    let body = medsen::cloud::wire::encode_request_traced(wire, request, trace)
        .expect("benchmark requests encode");
    encode_upload_traced(session, wire, &body, trace)
}

fn symbol_frame_bytes() -> usize {
    OneWayUploader::with_budget(SymbolBudget::for_drop_rate(ONEWAY_DROP))
        .encode(1, &[0u8; 64])
        .expect("tiny block encodes")
        .frames[0]
        .len()
}

/// A short plaintext bead trace: `beads` well-separated dips (≈2 s).
pub fn bead_trace(seed: u64, beads: u64, jitter: f64) -> SignalTrace {
    let mut synth = TraceSynthesizer::clean(seed);
    let specs: Vec<PulseSpec> = (0..beads)
        .map(|j| {
            PulseSpec::unipolar(
                Seconds::new(0.4 + jitter + j as f64 * 0.15),
                Seconds::new(0.02),
                0.01,
            )
        })
        .collect();
    synth.render(&specs, Seconds::new(0.8 + jitter + beads as f64 * 0.15))
}

/// A population alias's signature: 1–60 beads of the aliases' kind.
pub fn alias_signature(rng: &mut AuditRng) -> BeadSignature {
    BeadSignature::from_counts(&[(ALIAS_BEAD, 1 + rng.below(60))])
}

/// A copy of `trace` whose content differs in one sample by a negligible
/// amount: distinct bytes (so the response cache cannot serve it) with the
/// same peaks. Used when a run needs more traces than were rendered.
pub fn perturbed(trace: &SignalTrace, k: u64) -> SignalTrace {
    let mut channels: Vec<Channel> = trace.channels().to_vec();
    channels[0].samples[0] += k as f64 * 1e-9;
    SignalTrace::new(trace.sample_rate, channels)
}
