//! The load phases: client threads driving the gateway through the same
//! calls a phone makes (`DongleSession`), timing each operation from the
//! outside and keeping every reply for the correctness gates.

use crate::inputs::{self, Inputs, ONEWAY_DROP};
use crate::stack::{nproc, Acknowledged, Stack};
use crate::stats::ms;
use medsen::audit::AuditRng;
use medsen::cloud::auth::AuthDecision;
use medsen::cloud::service::{Request, Response};
use medsen::cloud::{PeakReport, RecordId};
use medsen::gateway::{DongleSession, SessionConfig};
use medsen::phone::SymbolBudget;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One diagnosis the phone completed, kept for the oracle check.
pub struct Diagnosed {
    /// Which acquisition, and which perturbed reuse of it (0 = original).
    pub input: usize,
    pub reuse: u64,
    pub report: PeakReport,
    pub decoded: u64,
}

/// Everything one load phase observed.
#[derive(Default)]
pub struct Phase {
    /// Latency of each successful operation (a diagnosis, or a records
    /// visit of four requests), in ms.
    pub op_ms: Vec<f64>,
    /// Latency per request kind, in ms.
    pub kind_ms: BTreeMap<&'static str, Vec<f64>>,
    pub requests_attempted: u64,
    pub requests_failed: u64,
    pub elapsed_s: f64,
    pub uplink_bytes: u64,
    pub diagnosed: Vec<Diagnosed>,
    /// Phone-side decrypt time per diagnosis (benchmark wrapper), in ms.
    pub decrypt_ms: Vec<f64>,
    /// How late the open-loop sender issued each request, in ms.
    pub lag_ms: Vec<f64>,
    /// Largest replica lag sampled after a write (traced phases only).
    pub lag_bytes_max: u64,
    pub failures: Vec<String>,
    pub acked: Acknowledged,
}

impl Phase {
    pub fn merge(&mut self, other: Phase) {
        self.op_ms.extend(other.op_ms);
        for (kind, v) in other.kind_ms {
            self.kind_ms.entry(kind).or_default().extend(v);
        }
        self.requests_attempted += other.requests_attempted;
        self.requests_failed += other.requests_failed;
        self.uplink_bytes += other.uplink_bytes;
        self.diagnosed.extend(other.diagnosed);
        self.decrypt_ms.extend(other.decrypt_ms);
        self.lag_ms.extend(other.lag_ms);
        self.lag_bytes_max = self.lag_bytes_max.max(other.lag_bytes_max);
        self.failures.extend(other.failures);
        self.acked.enrolled.extend(other.acked.enrolled);
        self.acked.records.extend(other.acked.records);
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    fn time(&mut self, kind: &'static str, started: Instant) {
        let elapsed = ms(started.elapsed());
        self.kind_ms.entry(kind).or_default().push(elapsed);
    }
}

/// Shared cursor, so consecutive phases of one run never reuse an input.
#[derive(Default)]
pub struct Cursor {
    next_input: AtomicUsize,
}

/// Runs `count` client threads of `body` and merges what they saw.
fn clients(count: usize, body: impl Fn(usize) -> Phase + Sync) -> Phase {
    let started = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..count)
            .map(|c| {
                let body = &body;
                scope.spawn(move || body(c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut phase = Phase::default();
    for part in parts {
        phase.merge(part);
    }
    phase.elapsed_s = started.elapsed().as_secs_f64();
    phase
}

fn analyzed(reply: Result<Response, medsen::gateway::SessionError>) -> Result<Response, String> {
    match reply {
        Ok(Response::Error { reason }) => Err(format!("error reply: {reason}")),
        Ok(response) => Ok(response),
        Err(e) => Err(format!("session error: {e}")),
    }
}

/// Uploads the session has repeated so far (flaky-link retries and
/// resubmissions after backpressure); each put the whole upload on the
/// link again.
fn resends(session: &DongleSession<'_>) -> u64 {
    let stats = session.stats();
    stats.link_retries + stats.shed_retries
}

/// Sends one two-way request; returns its reply and how many times its
/// upload went on the link.
fn send(session: &mut DongleSession<'_>, request: &Request) -> (Result<Response, String>, u64) {
    let before = resends(session);
    let reply = analyzed(session.request(request));
    (reply, 1 + resends(session) - before)
}

/// Sends one diagnosis and decrypts its reply; returns (report, count).
fn diagnose(
    session: &mut DongleSession<'_>,
    phase: &mut Phase,
    request: &Request,
    diagnosis: &inputs::Diagnosis,
) -> Result<(PeakReport, u64), String> {
    phase.requests_attempted += 1;
    let reply = analyzed(session.request(request));
    match reply {
        Ok(Response::Analyzed {
            report,
            auth: None,
            stored_as: None,
        }) => {
            let started = Instant::now();
            let count = diagnosis.decrypt(&report);
            phase.decrypt_ms.push(ms(started.elapsed()));
            Ok((report, count))
        }
        Ok(other) => Err(format!("unexpected diagnosis reply {other:?}")),
        Err(e) => Err(e),
    }
    .inspect_err(|_| {
        phase.requests_failed += 1;
    })
}

/// Open loop: arrivals `range` of the schedule, sent at their due time by
/// whichever client is free, each timed from when it was due.
pub fn clinic_diagnose(stack: &Stack, inputs: &Inputs, range: std::ops::Range<usize>) -> Phase {
    let offset = inputs.arrivals[range.start.min(inputs.arrivals.len() - 1)];
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(range.start);
    clients(nproc(), |_| {
        let mut phase = Phase::default();
        let mut session = stack.gateway.connect(SessionConfig::reliable());
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= range.end {
                break;
            }
            let due = start + Duration::from_secs_f64(inputs.arrivals[i] - offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            phase
                .lag_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            let d = &inputs.diagnoses[i];
            let before = resends(&session);
            match diagnose(&mut session, &mut phase, &d.request, d) {
                Ok((report, decoded)) => {
                    phase.op_ms.push(ms(due.elapsed()));
                    let sent = 1 + resends(&session) - before;
                    phase.uplink_bytes += sent * d.upload_bytes as u64;
                    phase.diagnosed.push(Diagnosed {
                        input: i,
                        reuse: 0,
                        report,
                        decoded,
                    });
                }
                Err(e) => phase.fail(format!("diagnosis {i}: {e}")),
            }
        }
        phase
    })
}

/// Closed loop of one-way fountain sessions over a lossy link.
pub fn oneway_lossy(stack: &Stack, inputs: &Inputs, cursor: &Cursor, seconds: f64) -> Phase {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let pool = inputs.diagnoses.len();
    clients(nproc(), |c| {
        let mut phase = Phase::default();
        let config = SessionConfig::fountain(
            ONEWAY_DROP,
            inputs.seed ^ (c as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
            SymbolBudget::for_drop_rate(ONEWAY_DROP),
        );
        let mut session = stack.gateway.connect(config);
        while Instant::now() < deadline {
            let j = cursor.next_input.fetch_add(1, Ordering::Relaxed);
            let (input, reuse) = (j % pool, (j / pool) as u64);
            let d = &inputs.diagnoses[input];
            let owned;
            let request = if reuse == 0 {
                &d.request
            } else {
                owned = Request::Analyze {
                    trace: inputs::perturbed(d.trace(), reuse),
                    authenticate: false,
                };
                &owned
            };
            let emitted = session.stats().symbols_emitted;
            let started = Instant::now();
            match diagnose(&mut session, &mut phase, request, d) {
                Ok((report, decoded)) => {
                    phase.op_ms.push(ms(started.elapsed()));
                    let symbols = session.stats().symbols_emitted - emitted;
                    phase.uplink_bytes += symbols * inputs.symbol_frame_bytes as u64;
                    phase.diagnosed.push(Diagnosed {
                        input,
                        reuse,
                        report,
                        decoded,
                    });
                }
                Err(e) => phase.fail(format!("one-way diagnosis {j}: {e}")),
            }
        }
        phase
    })
}

/// Closed loop of clinic visits `visits`: enroll a new alias,
/// authenticate a user's bead session (a durable, replicated record
/// write), fetch the stored record, and verify the integrity of an
/// earlier one. Every visit enrolls an alias that stays and that every
/// later `authenticate` scans, so a run is a fixed number of visits
/// rather than a deadline: each visit index meets the same population on
/// every run of every commit.
pub fn records_durable(
    stack: &Stack,
    inputs: &Inputs,
    visits: std::ops::Range<u64>,
    traced: bool,
) -> Phase {
    let users = &inputs.users;
    // One session: with one per vCPU the loop saturates the machine and a
    // host's CPU steal moves the visit median by up to 2x between runs;
    // one session leaves a vCPU of headroom for the workers.
    clients(1, |_| {
        let mut phase = Phase::default();
        let mut session = stack.gateway.connect(SessionConfig::reliable());
        let mut earlier: Option<RecordId> = None;
        // Reading the pair's status takes its locks, so a traced run
        // samples the replica lag after the writes of every 16th visit.
        let sample_lag = |phase: &mut Phase, visit: u64| {
            if traced && visit.is_multiple_of(16) {
                let lag = stack.pair.status().shipper.lag_bytes;
                phase.lag_bytes_max = phase.lag_bytes_max.max(lag);
            }
        };
        for k in visits.clone() {
            // Inputs for this visit, prepared before its clock starts.
            let user = &users[k as usize % users.len()];
            let trace_index = (k as usize / users.len()) % user.traces.len();
            let auth_request = Request::Analyze {
                trace: inputs::perturbed(&user.traces[trace_index], k + 1),
                authenticate: true,
            };
            let alias = format!("alias-{}-{k}", inputs.seed);
            let signature = inputs::alias_signature(&mut AuditRng::new(inputs.seed ^ k));
            let enroll_request = Request::Enroll {
                identifier: alias.clone(),
                signature: signature.clone(),
            };
            // Times each request's upload went on the link: enroll, auth,
            // fetch, verify.
            let mut sent = [0u64; 4];
            let visit = Instant::now();
            let outcome = (|| -> Result<(), String> {
                phase.requests_attempted += 1;
                let started = Instant::now();
                let (reply, n) = send(&mut session, &enroll_request);
                sent[0] = n;
                match reply {
                    Ok(Response::Enrolled) => phase
                        .acked
                        .enrolled
                        .push((alias.clone(), signature.clone())),
                    Ok(other) => return Err(format!("enroll {alias}: unexpected {other:?}")),
                    Err(e) => return Err(format!("enroll {alias}: {e}")),
                }
                phase.time("enroll", started);
                sample_lag(&mut phase, k);

                phase.requests_attempted += 1;
                let started = Instant::now();
                let (reply, n) = send(&mut session, &auth_request);
                sent[1] = n;
                phase.time("auth", started);
                let (report, id) = match reply {
                    Ok(Response::Analyzed {
                        report,
                        auth: Some(AuthDecision::Accepted { user_id }),
                        stored_as: Some(id),
                    }) if user_id == user.id => (report, id),
                    Ok(other) => return Err(format!("auth of {}: unexpected {other:?}", user.id)),
                    Err(e) => return Err(format!("auth of {}: {e}", user.id)),
                };
                sample_lag(&mut phase, k);

                phase.requests_attempted += 1;
                let started = Instant::now();
                let (reply, n) = send(&mut session, &Request::Fetch { record_id: id });
                sent[2] = n;
                phase.time("read", started);
                match reply {
                    Ok(Response::Record(record))
                        if record.user_id == user.id
                            && crate::checks::same_report(&record.report, &report) =>
                    {
                        phase.acked.records.push((id, record));
                    }
                    Ok(other) => return Err(format!("fetch {id:?}: unexpected {other:?}")),
                    Err(e) => return Err(format!("fetch {id:?}: {e}")),
                }

                phase.requests_attempted += 1;
                let target = earlier.replace(id).unwrap_or(id);
                let started = Instant::now();
                let (reply, n) = send(
                    &mut session,
                    &Request::VerifyIntegrity { record_id: target },
                );
                sent[3] = n;
                phase.time("verify", started);
                match reply {
                    Ok(Response::Integrity { intact: true }) => Ok(()),
                    Ok(other) => Err(format!("verify {target:?}: unexpected {other:?}")),
                    Err(e) => Err(format!("verify {target:?}: {e}")),
                }
            })();
            match outcome {
                Ok(()) => {
                    phase.op_ms.push(ms(visit.elapsed()));
                    let record_id = earlier.expect("a completed visit stored a record");
                    let bytes = [
                        inputs::upload_bytes(&enroll_request),
                        user.auth_upload_bytes[trace_index],
                        inputs::upload_bytes(&Request::Fetch { record_id }),
                        inputs::upload_bytes(&Request::VerifyIntegrity { record_id }),
                    ];
                    phase.uplink_bytes += sent
                        .iter()
                        .zip(bytes)
                        .map(|(n, b)| n * b as u64)
                        .sum::<u64>();
                }
                Err(e) => {
                    phase.requests_failed += 1;
                    phase.fail(e);
                }
            }
        }
        phase
    })
}
