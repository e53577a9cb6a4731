//! The loopback client and the response oracle.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use om_api::{BatchItemResult, BatchResponse};
use om_server::http::parse_request_routed;
use om_server::ops::EngineOps;
use om_server::router::RouteOptions;
use om_server::v1::route_v1;

use crate::workload::{Kind, Req};

/// One answered request.
pub struct Answer {
    pub status: u16,
    pub body: String,
}

/// Send one pre-encoded request and read the response to its last byte.
pub fn send(addr: SocketAddr, raw: &[u8]) -> Result<Answer, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream.write_all(raw).map_err(|e| format!("write: {e}"))?;
    let mut response = Vec::with_capacity(4096);
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(response).map_err(|_| "non-UTF-8 response".to_owned())?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response {:?}", truncate(&text)))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok(Answer { status, body })
}

/// A `GET` (for `/metrics`).
pub fn get(addr: SocketAddr, path: &str) -> Result<Answer, String> {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n");
    send(addr, raw.as_bytes())
}

/// Why an answer counts as failed, or `None` when it passes.
///
/// A request fails when its status is not 200, when its body is an
/// error envelope, when any batch item carries an error (batches answer
/// 200 even when every item failed), or when `expected` is given and the
/// body differs from it by a single byte.
pub fn check(kind: Kind, answer: &Answer, expected: Option<&str>) -> Option<String> {
    if answer.status != 200 {
        return Some(format!(
            "{}: HTTP {}: {}",
            kind.name(),
            answer.status,
            truncate(&answer.body)
        ));
    }
    if answer.body.starts_with("{\"error\"") {
        return Some(format!(
            "{}: error envelope: {}",
            kind.name(),
            truncate(&answer.body)
        ));
    }
    if kind == Kind::Batch {
        match BatchResponse::parse(&answer.body) {
            Ok(batch) => {
                if let Some(i) = batch
                    .items
                    .iter()
                    .position(|item| matches!(item, BatchItemResult::Error(_)))
                {
                    return Some(format!(
                        "batch: item {i} carries an error: {}",
                        truncate(&answer.body)
                    ));
                }
            }
            Err(e) => return Some(format!("batch: undecodable body: {e}")),
        }
    }
    match expected {
        Some(want) if want != answer.body => {
            let at = want
                .bytes()
                .zip(answer.body.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(want.len().min(answer.body.len()));
            Some(format!(
                "{}: body differs from the in-process answer at byte {at}",
                kind.name()
            ))
        }
        _ => None,
    }
}

/// The in-process answer: the request's own bytes parsed by the server's
/// HTTP parser and routed through `route_v1` over `ops`.
pub fn in_process(ops: &dyn EngineOps, req: &Req) -> Answer {
    match parse_request_routed(req.raw.as_slice(), usize::MAX, |_| true) {
        Ok((parsed, _)) => {
            let response = route_v1(&parsed, ops, &RouteOptions::default());
            Answer {
                status: response.status,
                body: response.body,
            }
        }
        Err(e) => Answer {
            status: 400,
            body: format!("request did not parse: {e}"),
        },
    }
}

fn truncate(s: &str) -> &str {
    let end = s.char_indices().nth(160).map_or(s.len(), |(i, _)| i);
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(body: &str) -> Answer {
        Answer {
            status: 200,
            body: body.to_owned(),
        }
    }

    const COMPARE: &str = r#"{"attribute":"PhoneModel","value_1":"ph1"}"#;

    #[test]
    fn passes_an_identical_answer() {
        assert_eq!(check(Kind::Compare, &ok(COMPARE), Some(COMPARE)), None);
        assert_eq!(check(Kind::Compare, &ok(COMPARE), None), None);
    }

    #[test]
    fn flags_a_flipped_byte() {
        let mut flipped = COMPARE.as_bytes().to_vec();
        flipped[20] ^= 0x01;
        let flipped = String::from_utf8(flipped).expect("still ASCII");
        let why = check(Kind::Compare, &ok(&flipped), Some(COMPARE)).expect("flagged");
        assert!(why.contains("byte 20"), "{why}");
    }

    #[test]
    fn flags_a_non_200() {
        let answer = Answer {
            status: 503,
            body: r#"{"error":{"code":"overloaded","message":"busy"}}"#.to_owned(),
        };
        let why = check(Kind::Compare, &answer, None).expect("flagged");
        assert!(why.contains("HTTP 503"), "{why}");
    }

    #[test]
    fn flags_an_error_envelope_under_200() {
        let answer = ok(r#"{"error":{"code":"invalid","message":"no"}}"#);
        assert!(check(Kind::Drill, &answer, None).is_some());
    }

    #[test]
    fn flags_a_per_item_batch_error() {
        // A batch drill item with `depth` answers 200 but carries an
        // `invalid` error for that item.
        let body = om_api::BatchResponse {
            items: vec![om_api::BatchItemResult::Error(om_api::ErrorEnvelope::new(
                om_api::ErrorCode::Invalid,
                "batch drill items run under the server's drill configuration",
            ))],
        }
        .encode();
        let why = check(Kind::Batch, &ok(&body), None).expect("flagged");
        assert!(why.contains("item 0"), "{why}");
    }

    #[test]
    fn passes_a_clean_batch() {
        let body = om_api::BatchResponse { items: Vec::new() }.encode();
        assert_eq!(check(Kind::Batch, &ok(&body), None), None);
    }

    /// The same three failures, produced by a live server.
    #[test]
    fn flags_failures_from_a_live_server() {
        use std::sync::Arc;

        use om_api::{BatchItemRequest, BatchRequest, CompareRequest, DrillRequest};
        use om_engine::{EngineConfig, OpportunityMap};
        use om_server::ops::EngineBackend;
        use om_server::{Server, ServerConfig};

        let (ds, _) = om_synth::paper_scenario(2_000, 3);
        let om = Arc::new(OpportunityMap::build(ds, EngineConfig::default()).expect("build"));
        let server = Server::start(Arc::clone(&om), ServerConfig::default()).expect("start");
        let addr = server.local_addr();
        let compare = CompareRequest {
            attr: "PhoneModel".into(),
            v1: "ph1".into(),
            v2: "ph2".into(),
            class: "dropped".into(),
            allow_partial: None,
        };

        let req = Req::new(Kind::Compare, compare.encode());
        let answer = send(addr, &req.raw).expect("compare");
        let backend = EngineBackend {
            om: &om,
            ingest: None,
        };
        let want = in_process(&backend, &req).body;
        assert_eq!(check(Kind::Compare, &answer, Some(&want)), None);
        let mut flipped = want.clone().into_bytes();
        flipped[want.len() / 2] ^= 0x01;
        let flipped = String::from_utf8(flipped).expect("still UTF-8");
        assert!(check(Kind::Compare, &answer, Some(&flipped)).is_some());

        let drill = DrillRequest {
            attr: compare.attr.clone(),
            v1: compare.v1.clone(),
            v2: compare.v2.clone(),
            class: compare.class.clone(),
            depth: Some(2),
            min_score: None,
            path: Vec::new(),
        };
        let batch = BatchRequest {
            items: vec![BatchItemRequest::Drill {
                req: drill,
                budget_ms: None,
            }],
        };
        let answer = send(addr, &Req::new(Kind::Batch, batch.encode()).raw).expect("batch");
        assert_eq!(answer.status, 200);
        assert!(check(Kind::Batch, &answer, None).is_some());

        let unknown = CompareRequest {
            attr: "NoSuchAttribute".into(),
            ..compare
        };
        let answer = send(addr, &Req::new(Kind::Compare, unknown.encode()).raw).expect("compare");
        assert_ne!(answer.status, 200);
        assert!(check(Kind::Compare, &answer, None).is_some());

        server.shutdown();
    }
}
