//! Request routing: decoded requests in, responses out.
//!
//! One dispatch serves every backend: `/v1/*` goes to
//! [`crate::v1::route_v1`] through the [`EngineOps`] seam, `GET
//! /healthz` and `GET /metrics` are answered here, and everything else
//! is a `404`. The router is a pure function of (request, backend) —
//! no I/O, no shared mutable state — so the whole path is testable
//! without sockets.

use om_engine::Budget;

use crate::http::{Request, Response};
use crate::metrics::Endpoint;
use crate::ops::EngineOps;

/// Per-request routing context: the cooperative budget the engine runs
/// under, and what to tell shed/expired clients via `Retry-After`.
#[derive(Debug, Clone)]
pub struct RouteOptions {
    /// Deadline + cancellation for engine work on this request.
    pub budget: Budget,
    /// Seconds clients should wait before retrying after a `503`.
    pub retry_after_secs: u64,
    /// The server's counters, when handlers should record work-shaped
    /// metrics (exploration steps, truncations) that only they can see.
    /// `None` in embedded/test routing — recording is best-effort.
    pub metrics: Option<std::sync::Arc<crate::metrics::Metrics>>,
}

impl Default for RouteOptions {
    fn default() -> Self {
        Self {
            budget: Budget::unlimited(),
            retry_after_secs: 1,
            metrics: None,
        }
    }
}

/// Whether [`route`] serves `path` at all. Any other path only ever
/// earns a `404`, so body admission caps its upload allowance; this is
/// the same endpoint table the dispatch and the metric labels use, so
/// admission and routing cannot disagree.
#[must_use]
pub fn routes(path: &str) -> bool {
    Endpoint::classify(path) != Endpoint::Other
}

/// Route one parsed request against `ops` under `opts`' budget.
/// `metrics_body` renders the `/metrics` text (the caller owns the
/// counters).
#[must_use]
pub fn route(
    req: &Request,
    ops: &dyn EngineOps,
    opts: &RouteOptions,
    metrics_body: impl FnOnce() -> String,
) -> Response {
    // The versioned API owns its methods, its unknown-path answer and
    // its error envelope, so every `/v1/*` path goes there.
    if req.path.starts_with("/v1/") {
        return crate::v1::route_v1(req, ops, opts);
    }
    match Endpoint::classify(&req.path) {
        Endpoint::Healthz | Endpoint::Metrics if req.method != "GET" => {
            Response::error(405, &format!("method {} not allowed", req.method))
        }
        Endpoint::Healthz => Response::text("ok\n"),
        Endpoint::Metrics => Response::text(metrics_body()),
        _ => Response::error(404, &format!("no route for {:?}", req.path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::EngineBackend;
    use om_engine::{EngineConfig, OpportunityMap};
    use om_synth::paper_scenario;
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    fn engine() -> &'static OpportunityMap {
        static OM: OnceLock<OpportunityMap> = OnceLock::new();
        OM.get_or_init(|| {
            let (ds, _) = paper_scenario(2_000, 33);
            OpportunityMap::build(ds, EngineConfig::default()).unwrap()
        })
    }

    fn call(method: &str, path: &str) -> Response {
        call_with_body(method, path, "")
    }

    fn call_with_body(method: &str, path: &str, body: &str) -> Response {
        let req = Request {
            method: method.into(),
            path: path.into(),
            params: BTreeMap::new(),
            body: body.to_owned(),
        };
        let ops = EngineBackend {
            om: engine(),
            ingest: None,
        };
        route(&req, &ops, &RouteOptions::default(), || "metrics\n".to_owned())
    }

    #[test]
    fn healthz_and_metrics() {
        assert_eq!(call("GET", "/healthz").body, "ok\n");
        assert_eq!(call("GET", "/metrics").body, "metrics\n");
        assert_eq!(call("POST", "/healthz").status, 405);
        assert_eq!(call("POST", "/metrics").status, 405);
    }

    #[test]
    fn admission_agrees_with_dispatch() {
        // A path `routes` rejects must answer an upload with a 404 that
        // never looks at the body; a path it accepts must reach a
        // handler under some method.
        for path in [
            "/healthz",
            "/metrics",
            "/v1/compare",
            "/v1/drill",
            "/v1/gi",
            "/v1/cube/slice",
            "/v1/explore",
            "/v1/compare/batch",
            "/v1/nope",
            "/compare",
            "/ingest",
            "/internal/level",
            "/",
        ] {
            let statuses = [call("GET", path).status, call("POST", path).status];
            if routes(path) {
                assert!(statuses.iter().any(|&s| s != 404), "{path}: {statuses:?}");
            } else {
                let upload = call_with_body("POST", path, "{\"attr\":\"PhoneModel\"}");
                assert_eq!(upload.status, 404, "{path}");
                assert_eq!(upload, call("POST", path), "{path}: body was read");
            }
        }
        // `/v1/ingest` without an ingest handle is a 404 envelope, but
        // the path is served (and admitted) on an ingesting node.
        assert!(routes("/v1/ingest"));
    }
}
