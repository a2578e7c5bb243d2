//! The deployed stack: the gateway in front of a durable primary + warm
//! standby pair, built exactly as a clinic ships it.

use crate::inputs::{Inputs, USER_BEAD};
use medsen::cloud::auth::BeadSignature;
use medsen::cloud::service::{CloudService, Request, Response};
use medsen::cloud::{shard_index, AnalysisServer, RecordId};
use medsen::cloud::{FlushPolicy, ReplicatedCloud, StorageConfig, StoredRecord};
use medsen::dsp::classify::Classifier;
use medsen::dsp::FeatureVector;
use medsen::gateway::{Gateway, GatewayConfig, RuntimeKind, TelemetryConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const SHARDS: usize = 8;

pub struct Stack {
    pub gateway: Gateway,
    pub pair: Arc<ReplicatedCloud>,
}

/// Set-up timings of one stack build.
pub struct SetupTiming {
    pub total_s: f64,
    /// Opening both durable nodes, recovery included.
    pub recover_s: f64,
}

pub struct DataDirs {
    pub root: PathBuf,
    pub primary: PathBuf,
    pub standby: PathBuf,
}

impl DataDirs {
    /// Fresh per-run directories under the working directory.
    pub fn fresh(tag: &str) -> std::io::Result<Self> {
        let root = PathBuf::from(".clinicbench_data").join(format!("{tag}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            primary: root.join("primary"),
            standby: root.join("standby"),
            root,
        })
    }

    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".clinicbench_data");
    }
}

fn open(dir: &Path) -> CloudService {
    CloudService::with_storage(dir, SHARDS, FlushPolicy::EveryWrite)
        .unwrap_or_else(|e| panic!("open durable node {}: {e}", dir.display()))
}

/// Writes the alias population and the authenticating users into both
/// data directories through a replicated pair, untimed. Group commit is
/// safe here: the pair is flushed before it is dropped.
pub fn prepopulate(dirs: &DataDirs, inputs: &Inputs) {
    let lax = |dir: &Path| {
        CloudService::with_storage_config(
            StorageConfig::new(dir).flush(FlushPolicy::EveryN(4096)),
            SHARDS,
        )
        .expect("open node for pre-population")
    };
    let pair = lax(&dirs.primary)
        .with_replication(lax(&dirs.standby))
        .expect("pair for pre-population");
    let serving = pair.serving();
    let users = inputs.users.iter().map(|u| (u.id.clone(), u.signature()));
    for (identifier, signature) in inputs.population.iter().cloned().chain(users) {
        let reply = serving.handle_shared(Request::Enroll {
            identifier,
            signature,
        });
        assert_eq!(reply, Response::Enrolled, "pre-population enroll");
    }
    pair.primary().flush_storage();
    pair.standby().flush_storage();
}

/// Trains the one-class bead classifier from the reference trace, as a
/// clinic does at start-up.
fn train_classifier(reference: &medsen::impedance::SignalTrace) -> Classifier {
    let report = AnalysisServer::paper_default().analyze(reference);
    let vectors: Vec<FeatureVector> = report
        .peaks
        .iter()
        .map(|p| FeatureVector {
            index: 0,
            amplitudes: p.features.clone(),
        })
        .collect();
    Classifier::train(&[(USER_BEAD.label(), vectors)]).expect("bead classifier trains")
}

pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        workers: nproc(),
        ..GatewayConfig::clinic_default()
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Opens the durable pair (recovering what is on disk), pairs it for
/// replication, trains and installs the classifier, and starts the
/// gateway on its default engine and telemetry.
pub fn build(dirs: &DataDirs, inputs: &Inputs) -> (Stack, SetupTiming) {
    let started = Instant::now();
    let mut primary = open(&dirs.primary);
    let mut standby = open(&dirs.standby);
    let recover_s = started.elapsed().as_secs_f64();
    let classifier = train_classifier(&inputs.reference);
    primary.install_classifier(classifier.clone());
    standby.install_classifier(classifier);
    let pair = primary
        .with_replication(standby)
        .expect("replication pairs");
    let gateway = Gateway::with_replicas(
        Arc::clone(&pair),
        gateway_config(),
        RuntimeKind::default(),
        TelemetryConfig::default(),
    );
    let timing = SetupTiming {
        total_s: started.elapsed().as_secs_f64(),
        recover_s,
    };
    (Stack { gateway, pair }, timing)
}

impl Stack {
    /// Leaves the stack idle until the process exits instead of shutting
    /// it down. Shutting down the gateway's executor can hang: the
    /// runtime sets its shutdown flag and notifies the condvar without
    /// holding the queue lock, so a worker between its flag check and its
    /// wait sleeps forever (one of about 800 shutdowns hung). The
    /// benchmark measures set-up and serving, not shutdown, and nothing
    /// is left to flush: every write was fsynced when it was acknowledged.
    pub fn retire(self) {
        std::mem::forget(self);
    }
}

/// What `records_durable` acknowledged, for the durability gate.
#[derive(Default)]
pub struct Acknowledged {
    pub enrolled: Vec<(String, BeadSignature)>,
    pub records: Vec<(RecordId, StoredRecord)>,
}

/// Reopens both data directories from disk and checks that every
/// acknowledged enroll and record survived on each node. Returns one line
/// per problem (empty when durable).
pub fn check_durable(dirs: &DataDirs, inputs: &Inputs, acked: &Acknowledged) -> Vec<String> {
    let mut expected = vec![0usize; SHARDS];
    let identifiers = inputs
        .population
        .iter()
        .map(|(id, _)| id)
        .chain(inputs.users.iter().map(|u| &u.id))
        .chain(acked.enrolled.iter().map(|(id, _)| id));
    for id in identifiers {
        expected[shard_index(id, SHARDS)] += 1;
    }
    let mut problems = Vec::new();
    for (name, dir) in [("primary", &dirs.primary), ("standby", &dirs.standby)] {
        let node = open(dir);
        let enrolled: Vec<usize> = node.shard_stats().iter().map(|s| s.enrolled).collect();
        if enrolled != expected {
            problems.push(format!(
                "{name}: enrolled per shard {enrolled:?}, acknowledged {expected:?}"
            ));
        }
        if node.store().len() != acked.records.len() {
            problems.push(format!(
                "{name}: {} records on disk, {} acknowledged",
                node.store().len(),
                acked.records.len()
            ));
        }
        let lost = acked
            .records
            .iter()
            .filter(|(id, record)| node.store().fetch(*id).as_ref() != Some(record))
            .count();
        if lost > 0 {
            problems.push(format!(
                "{name}: {lost} acknowledged records missing or altered"
            ));
        }
    }
    problems
}
