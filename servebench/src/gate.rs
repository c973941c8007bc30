//! The correctness gate: every answer the service gives is compared
//! bit-exactly (ids, order and `similarity.to_bits()`) with an answer
//! computed in-process before timing.

use serde::Content;
use uots::QueryResult;

use crate::http::Reply;

/// A top-k answer as the gate compares it: `(trajectory id, similarity
/// bits)` in rank order.
pub type Answer = Vec<(u64, u64)>;

/// The comparable form of a direct engine result.
pub fn answer_of(result: &QueryResult) -> Answer {
    result
        .matches
        .iter()
        .map(|m| (u64::from(m.id.0), m.similarity.to_bits()))
        .collect()
}

fn as_u64(c: &Content) -> Option<u64> {
    match *c {
        Content::U64(v) => Some(v),
        Content::I64(v) => u64::try_from(v).ok(),
        _ => None,
    }
}

fn as_f64(c: &Content) -> Option<f64> {
    match *c {
        Content::F64(v) => Some(v),
        Content::U64(v) => Some(v as f64),
        Content::I64(v) => Some(v as f64),
        _ => None,
    }
}

/// Parses a JSON reply body.
pub fn body_json(reply: &Reply) -> Result<Content, String> {
    serde_json::from_slice::<Content>(&reply.body).map_err(|e| format!("unparsable body: {e}"))
}

/// Checks one `/topk` reply against the expected answer. A refused,
/// failed, degraded, best-effort or different answer is an error.
pub fn check_topk(reply: &std::io::Result<Reply>, expected: &Answer) -> Result<(), String> {
    let reply = reply.as_ref().map_err(|e| format!("transport: {e}"))?;
    if reply.status != 200 {
        return Err(format!(
            "status {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body).trim()
        ));
    }
    let body = body_json(reply)?;
    if matches!(body.get("degraded"), Some(Content::Bool(true))) {
        return Err("degraded answer".into());
    }
    let result = body.get("result").ok_or("no `result`")?;
    match result.get("completeness") {
        Some(Content::Str(s)) if s == "Exact" => {}
        other => return Err(format!("not exact: {other:?}")),
    }
    let matches = result
        .get("matches")
        .and_then(Content::as_seq)
        .ok_or("no `matches`")?;
    let got: Option<Answer> = matches
        .iter()
        .map(|m| {
            let id = as_u64(m.get("id")?)?;
            let sim = as_f64(m.get("similarity")?)?;
            Some((id, sim.to_bits()))
        })
        .collect();
    let got = got.ok_or("malformed match")?;
    if &got != expected {
        return Err(format!("wrong answer: got {got:?}, expected {expected:?}"));
    }
    Ok(())
}

/// Checks one single-trip `/ingest` reply and returns the acked global id.
pub fn check_ingest(reply: &std::io::Result<Reply>) -> Result<u64, String> {
    let reply = reply.as_ref().map_err(|e| format!("transport: {e}"))?;
    if reply.status != 200 {
        return Err(format!("ingest status {}", reply.status));
    }
    let body = body_json(reply)?;
    if !matches!(body.get("published"), Some(Content::Bool(true))) {
        return Err("ingest not published".into());
    }
    match body.get("inserted").and_then(Content::as_seq) {
        Some([id]) => as_u64(id).ok_or_else(|| "malformed inserted id".into()),
        other => Err(format!("expected one inserted id, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(body: &str) -> std::io::Result<Reply> {
        Ok(Reply {
            status: 200,
            body: body.as_bytes().to_vec(),
        })
    }

    const BODY: &str = r#"{"epoch":0,"degraded":false,"planned":[],"result":{"matches":[{"id":76,"similarity":0.6718914437714898},{"id":3,"similarity":0.5}],"completeness":"Exact"}}"#;

    fn expected() -> Answer {
        vec![(76, 0.6718914437714898f64.to_bits()), (3, 0.5f64.to_bits())]
    }

    #[test]
    fn accepts_the_exact_answer() {
        assert_eq!(check_topk(&reply(BODY), &expected()), Ok(()));
    }

    #[test]
    fn rejects_a_corrupted_expectation() {
        let mut flipped = expected();
        flipped[0].1 ^= 1;
        assert!(check_topk(&reply(BODY), &flipped).is_err());
        let mut swapped = expected();
        swapped.swap(0, 1);
        assert!(check_topk(&reply(BODY), &swapped).is_err());
    }

    #[test]
    fn rejects_degraded_refused_and_best_effort_answers() {
        let degraded = BODY.replace(r#""degraded":false"#, r#""degraded":true"#);
        assert!(check_topk(&reply(&degraded), &expected()).is_err());
        let best_effort = BODY.replace(r#""Exact""#, r#"{"BestEffort":{"bound_gap":0.5}}"#);
        assert!(check_topk(&reply(&best_effort), &expected()).is_err());
        let shed = Ok(Reply {
            status: 429,
            body: b"{}".to_vec(),
        });
        assert!(check_topk(&shed, &expected()).is_err());
    }
}
