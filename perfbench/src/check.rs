//! The answer checker: every election's `leader` must be the ring's true
//! leader, and a sampled exchange's body must equal the in-process
//! answer byte for byte.

use crate::wire::Reply;
use crate::workload::Exchange;

#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Correct,
    /// Answered 503: refused under load.
    Refused,
    /// Any other non-200 status.
    Failed(u16),
    /// Answered 200 with a wrong answer.
    Wrong(String),
}

/// Values of every top-level `"<field>":<integer>` in a response body, in
/// order. The field name is matched with its closing quote and colon, so
/// `"leader"` never matches `"leader_label"`.
pub fn int_fields(body: &[u8], field: &str) -> Vec<u64> {
    let pat = format!("\"{field}\":");
    let pat = pat.as_bytes();
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(pos) = body[at..].windows(pat.len()).position(|w| w == pat) {
        let digits_from = at + pos + pat.len();
        let digits = body[digits_from..].iter().take_while(|b| b.is_ascii_digit()).count();
        let value = std::str::from_utf8(&body[digits_from..digits_from + digits])
            .ok()
            .and_then(|s| s.parse().ok());
        match value {
            Some(v) => out.push(v),
            None => return Vec::new(),
        }
        at = digits_from + digits;
    }
    out
}

pub fn check(exchange: &Exchange, reply: &Reply) -> Verdict {
    match reply.status {
        200 => {}
        503 => return Verdict::Refused,
        other => return Verdict::Failed(other),
    }
    let leaders = int_fields(&reply.body, "leader");
    if leaders.len() != exchange.leaders.len()
        || leaders.iter().zip(&exchange.leaders).any(|(&got, &want)| got != u64::from(want))
    {
        return Verdict::Wrong(format!(
            "leaders {:?}, expected {:?}: {}",
            leaders,
            exchange.leaders,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    if let Some(exact) = &exchange.exact {
        if &reply.body != exact {
            return Verdict::Wrong(format!(
                "body {} differs from the in-process answer {}",
                String::from_utf8_lossy(&reply.body),
                String::from_utf8_lossy(exact)
            ));
        }
    }
    Verdict::Correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn reply(status: u16, body: &[u8]) -> Reply {
        Reply { status, body: body.to_vec(), wire_len: body.len() }
    }

    /// The in-process answer for an exchange: what a correct daemon sends.
    fn answer(exchange: &Exchange) -> Vec<u8> {
        let doc = |r: &hre_svc::ElectRequest| {
            hre_svc::response_json(r, &hre_svc::run_election(r).unwrap())
        };
        let body = exchange.body();
        if body.starts_with(b"[") {
            let entries = hre_svc::batch_from_json(body).unwrap();
            let docs: Vec<String> = entries.iter().map(|r| doc(r.as_ref().unwrap())).collect();
            hre_svc::batch_response_body(&docs).into_bytes()
        } else {
            doc(&hre_svc::ElectRequest::from_json(body).unwrap()).into_bytes()
        }
    }

    #[test]
    fn field_scan_skips_prefixes_and_reads_every_entry() {
        let body = br#"[{"leader":3,"leader_label":7},{"leader_label":1,"leader":12}]"#;
        assert_eq!(int_fields(body, "leader"), vec![3, 12]);
        assert_eq!(int_fields(body, "leader_label"), vec![7, 1]);
        assert_eq!(int_fields(br#"{"error":"x"}"#, "leader"), Vec::<u64>::new());
    }

    #[test]
    fn correct_answers_pass_on_every_workload() {
        for w in Workload::ALL {
            let stream = w.stream(21, 8);
            for i in 0..stream.len() {
                let ex = stream.get(i).unwrap();
                assert_eq!(check(ex, &reply(200, &answer(ex))), Verdict::Correct, "{i}");
            }
        }
    }

    #[test]
    fn a_planted_wrong_leader_is_caught() {
        for w in Workload::ALL {
            let stream = w.stream(22, 4);
            let ex = stream.get(0).unwrap();
            let good = String::from_utf8(answer(ex)).unwrap();
            let want = ex.leaders[ex.leaders.len() - 1];
            let n = int_fields(good.as_bytes(), "n")[ex.leaders.len() - 1];
            let planted = format!("\"leader\":{}", (u64::from(want) + 1) % n);
            let at = good.rfind(&format!("\"leader\":{want}")).unwrap();
            let bad = format!(
                "{}{}{}",
                &good[..at],
                planted,
                &good[at + format!("\"leader\":{want}").len()..]
            );
            assert!(matches!(check(ex, &reply(200, bad.as_bytes())), Verdict::Wrong(_)), "{bad}");
            // A batch that drops an entry is wrong too.
            assert!(matches!(check(ex, &reply(200, b"[]")), Verdict::Wrong(_)));
        }
    }

    #[test]
    fn a_byte_difference_in_a_sampled_body_is_caught() {
        let stream = Workload::ColdDistinct.stream(23, 400);
        let ex =
            (0..stream.len()).filter_map(|i| stream.get(i)).find(|e| e.exact.is_some()).unwrap();
        let mut body = answer(ex);
        assert_eq!(check(ex, &reply(200, &body)), Verdict::Correct);
        let messages = String::from_utf8_lossy(&body).find("\"messages\":").unwrap() + 11;
        body[messages] = if body[messages] == b'9' { b'8' } else { b'9' };
        assert!(matches!(check(ex, &reply(200, &body)), Verdict::Wrong(_)));
    }

    #[test]
    fn refusals_and_errors_are_not_correct() {
        let stream = Workload::HotRotations.stream(24, 1);
        assert_eq!(check(stream.get(0).unwrap(), &reply(503, b"{}")), Verdict::Refused);
        assert_eq!(check(stream.get(0).unwrap(), &reply(504, b"{}")), Verdict::Failed(504));
    }
}
