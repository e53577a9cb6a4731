//! Set-up and tear-down of the system under test: one node, or a
//! coordinator over two shards, each with a live-ingest WAL.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use om_cluster::{partition_dataset, ClusterConfig, Coordinator};
use om_data::Dataset;
use om_engine::{EngineConfig, IngestConfig, IngestHandle, OpportunityMap};
use om_server::ops::{EngineBackend, EngineOps};
use om_server::{Server, ServerConfig};

use crate::oracle::{check, send};
use crate::workload::Req;

/// Shards behind the `cluster-ingest` coordinator.
pub const SHARDS: usize = 2;

/// One engine with its WAL-backed ingestor and HTTP server.
pub struct Node {
    pub om: Arc<OpportunityMap>,
    pub ingest: IngestHandle,
    pub server: Server,
}

impl Node {
    fn start(om: OpportunityMap, wal: &Path) -> Result<Self, String> {
        let om = Arc::new(om);
        // Natural seals never fire: the benchmark seals every node
        // together every `SEAL_ROWS` rows, as `opmap cluster` does.
        let ingest = om
            .start_ingest(&IngestConfig {
                seal_rows: usize::MAX,
                ..IngestConfig::new(wal)
            })
            .map_err(|e| format!("start ingest: {e}"))?;
        let server = Server::start_with_ingest(
            Arc::clone(&om),
            ServerConfig::default(),
            Some(ingest.clone()),
        )
        .map_err(|e| format!("start server: {e}"))?;
        Ok(Self { om, ingest, server })
    }

    pub fn backend(&self) -> EngineBackend<'_> {
        EngineBackend {
            om: &self.om,
            ingest: Some(&self.ingest),
        }
    }

    fn stop(self) {
        self.server.shutdown();
        self.ingest.shutdown();
    }
}

/// The system under test, as the clients see it.
pub enum Front {
    Single(Node),
    Cluster {
        shards: Vec<Node>,
        coordinator: Arc<Coordinator>,
        server: Server,
        /// The discretized union the shards were cut from.
        base: Dataset,
    },
}

impl Front {
    /// Build and start everything, then fetch the store once through
    /// the front with `first`. Returns the front and the set-up time,
    /// which excludes dataset generation.
    pub fn start(
        ds: &Dataset,
        cluster: bool,
        wal_root: &Path,
        first: &Req,
    ) -> Result<(Self, f64), String> {
        let ds = ds.clone();
        let started = Instant::now();
        let om = OpportunityMap::build(ds, EngineConfig::default())
            .map_err(|e| format!("engine build: {e}"))?;
        let front = if cluster {
            let parts =
                partition_dataset(om.dataset(), SHARDS).map_err(|e| format!("partition: {e}"))?;
            let base = om.dataset().clone();
            drop(om);
            let shards = parts
                .into_iter()
                .enumerate()
                .map(|(p, part)| {
                    let om = OpportunityMap::build(part, EngineConfig::default())
                        .map_err(|e| format!("shard build: {e}"))?;
                    Node::start(om, &wal_root.join(format!("shard-{p}")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let coordinator = Arc::new(Coordinator::connect(ClusterConfig {
                shard_addrs: shards
                    .iter()
                    .map(|s| s.server.local_addr().to_string())
                    .collect(),
                ingest: true,
                ..ClusterConfig::default()
            })?);
            let server = Server::start_custom(
                Arc::clone(&coordinator) as Arc<dyn EngineOps>,
                ServerConfig::default(),
            )
            .map_err(|e| format!("start coordinator server: {e}"))?;
            Front::Cluster {
                shards,
                coordinator,
                server,
                base,
            }
        } else {
            Front::Single(Node::start(om, &wal_root.join("node"))?)
        };
        let answer = send(front.addr(), &first.raw)?;
        if let Some(why) = check(first.kind, &answer, None) {
            front.stop();
            return Err(format!("first store fetch failed: {why}"));
        }
        Ok((front, started.elapsed().as_secs_f64()))
    }

    pub fn addr(&self) -> SocketAddr {
        match self {
            Front::Single(node) => node.server.local_addr(),
            Front::Cluster { server, .. } => server.local_addr(),
        }
    }

    /// What `route_v1` runs over in-process: the node's engine backend,
    /// or the coordinator.
    pub fn with_ops<T>(&self, f: impl FnOnce(&dyn EngineOps) -> T) -> T {
        match self {
            Front::Single(node) => f(&node.backend()),
            Front::Cluster { coordinator, .. } => f(coordinator.as_ref()),
        }
    }

    /// Every engine node: the single node, or each shard.
    pub fn nodes(&self) -> &[Node] {
        match self {
            Front::Single(node) => std::slice::from_ref(node),
            Front::Cluster { shards, .. } => shards,
        }
    }

    /// The discretized base dataset every answer starts from.
    pub fn base(&self) -> &Dataset {
        match self {
            Front::Single(node) => node.om.dataset(),
            Front::Cluster { base, .. } => base,
        }
    }

    /// One seal round: every node seals its staged rows and publishes
    /// the new generation before this returns.
    pub fn seal_round(&self) -> Result<(), String> {
        for node in self.nodes() {
            node.ingest
                .flush()
                .map_err(|e| format!("seal round: {e}"))?;
        }
        Ok(())
    }

    pub fn stop(self) {
        match self {
            Front::Single(node) => node.stop(),
            Front::Cluster {
                shards,
                server,
                coordinator,
                ..
            } => {
                server.shutdown();
                drop(coordinator);
                for shard in shards {
                    shard.stop();
                }
            }
        }
    }
}

/// A per-run directory for WALs under the working directory,
/// removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(workload: &str, round: usize) -> Result<Self, String> {
        let dir =
            PathBuf::from(".bench_work").join(format!("{workload}-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}
