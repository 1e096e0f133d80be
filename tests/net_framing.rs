//! Property tests for the TCP framing state machine ([`LineSession`]):
//! the per-connection engine the reactor's event loops drive, so its
//! equivalence to the blocking codec path is what makes TCP serving
//! byte-identical on the wire to the stdin/stdout mode.
//!
//! * **chunk-boundary equivalence** — canonical request lines split
//!   across arbitrary read-chunk boundaries, with the output drained in
//!   arbitrary partial-write sizes, must produce byte-identical replies
//!   to serving the same lines straight through a [`Codec`] (seeded
//!   fits are deterministic, so two fresh services agree exactly);
//! * **mid-stream line cap** — a line that grows past `MAX_LINE_BYTES`
//!   is rejected with `err line-too-long` *while still arriving*,
//!   however the bytes are chunked, and the session discards everything
//!   after its close decision;
//! * **byte soup** — arbitrary bytes chunked arbitrarily never panic
//!   the session, and whatever comes out is newline-framed `ok`/`err`
//!   lines after the banner.

use blowfish_privacy::engine::{Codec, LineSession, NetStats, MAX_LINE_BYTES};
use blowfish_privacy::prelude::*;
use proptest::prelude::*;

/// Canonical request lines for the equivalence pool: every verb shape,
/// plus junk and silent lines. (`stats net` is deliberately absent — it
/// is answered at the framing layer, the one intentional divergence
/// from the raw codec path; `quit` is in, and both paths stop on it.)
const LINES: &[&str] = &[
    "tenant acme policy=line:8 eps=0.5 budget=2 data=uniform:1",
    "tenant beta policy=star:4 eps=0.25 budget=1 data=1,2,3,4",
    "use acme",
    "hello blowfish/1",
    "help",
    "fit as=h seed=3",
    "fit acme as=g seed=9 task=hist",
    "answer from=h 0..7",
    "answer acme from=g 0..3",
    "plan acme",
    "stats",
    "stats acme",
    "# a comment line",
    "",
    "frobnicate the privacy",
    "fit as= seed=",
    "quit",
];

/// What serving `script` straight through a [`Codec`] produces: banner
/// first, one reply line per request line, stop at `Quit`.
fn codec_reference(script: &str) -> String {
    let service = Service::new();
    let mut codec = Codec::new();
    let mut expected = Codec::banner();
    expected.push('\n');
    for line in script.split('\n') {
        match codec.serve(&service, line) {
            blowfish_privacy::engine::WireReply::Reply(reply) => {
                expected.push_str(&reply);
                expected.push('\n');
            }
            blowfish_privacy::engine::WireReply::Silent => {}
            blowfish_privacy::engine::WireReply::Quit => break,
        }
    }
    expected
}

/// Feeds `bytes` into a fresh session in chunks cut at `cuts`
/// (fractions of the input length), draining the output between chunks
/// in `drain_sizes`-byte partial writes; returns everything the session
/// emitted, in order.
fn drive_session(bytes: &[u8], cuts: &[usize], drain_sizes: &[usize]) -> (Vec<u8>, LineSession) {
    let service = Service::new();
    let stats = NetStats::default();
    let mut session = LineSession::new();
    let mut positions: Vec<usize> = cuts
        .iter()
        .map(|&c| if bytes.is_empty() { 0 } else { c % bytes.len() })
        .collect();
    positions.push(0);
    positions.push(bytes.len());
    positions.sort_unstable();
    let mut collected = Vec::new();
    let mut drain_at = 0usize;
    for window in positions.windows(2) {
        session.ingest(&bytes[window[0]..window[1]], &service, &stats);
        // Interleave a partial write after every chunk: take some but
        // not necessarily all of the pending output, like a socket
        // whose buffer keeps filling.
        if !drain_sizes.is_empty() {
            let take = drain_sizes[drain_at % drain_sizes.len()].min(session.output().len());
            drain_at += 1;
            collected.extend_from_slice(&session.output()[..take]);
            session.consume(take);
        }
    }
    // Final drain: whatever pace the socket ran at, everything pending
    // comes out eventually.
    collected.extend_from_slice(session.output());
    let n = session.output().len();
    session.consume(n);
    (collected, session)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn chunked_ingest_matches_the_blocking_codec_path(
        picks in prop_vec(0usize..LINES.len(), 0usize..10),
        cuts in prop_vec(0usize..100_000, 0usize..12),
        drain_sizes in prop_vec(1usize..64, 1usize..8),
    ) {
        let script = picks
            .iter()
            .map(|&i| LINES[i])
            .collect::<Vec<&str>>()
            .join("\n");
        let expected = codec_reference(&script);
        let mut bytes = script.into_bytes();
        bytes.push(b'\n');
        let (collected, session) = drive_session(&bytes, &cuts, &drain_sizes);
        prop_assert_eq!(String::from_utf8_lossy(&collected).into_owned(), expected);
        prop_assert!(session.output().is_empty());
    }

    #[test]
    fn line_cap_is_enforced_mid_stream(
        oversize in 1usize..4096,
        chunk_len in 1usize..100_000,
    ) {
        // One endless line, arriving in `chunk_len`-byte chunks with no
        // newline in sight: the session must reject it as soon as the
        // buffered prefix passes the cap — not wait for the newline that
        // may never come.
        let service = Service::new();
        let stats = NetStats::default();
        let mut session = LineSession::new();
        let total = MAX_LINE_BYTES + oversize;
        let chunk = vec![b'x'; chunk_len];
        let mut fed = 0usize;
        while fed < total {
            let take = chunk_len.min(total - fed);
            session.ingest(&chunk[..take], &service, &stats);
            fed += take;
            if fed > MAX_LINE_BYTES {
                prop_assert!(
                    session.closing(),
                    "session not closing with {fed} bufferable bytes of an unterminated line"
                );
                break;
            } else {
                prop_assert!(!session.closing(), "closed early at {fed} bytes");
            }
        }
        let out = String::from_utf8_lossy(session.output()).into_owned();
        prop_assert!(
            out.ends_with("err line-too-long (request line limit exceeded)\n"),
            "missing cap rejection, got: {}…", &out[..out.len().min(120)]
        );
        // Everything after the close decision is discarded.
        session.ingest(b"help\n", &service, &stats);
        let after = String::from_utf8_lossy(session.output()).into_owned();
        prop_assert_eq!(out, after);
    }

    #[test]
    fn byte_soup_never_panics_the_session(
        bytes in prop_vec((0usize..256).prop_map(|b| b as u8), 0usize..400),
        cuts in prop_vec(0usize..100_000, 0usize..8),
        drain_sizes in prop_vec(1usize..32, 1usize..6),
    ) {
        let (collected, _session) = drive_session(&bytes, &cuts, &drain_sizes);
        // Whatever came out is newline-framed typed lines: the banner,
        // then only ok/err replies.
        let text = String::from_utf8_lossy(&collected).into_owned();
        for (i, line) in text.split('\n').enumerate() {
            if line.is_empty() {
                continue;
            }
            if i == 0 {
                prop_assert!(line.starts_with("ok blowfish/1 "), "bad banner: {line:?}");
            } else {
                prop_assert!(
                    line.starts_with("ok ") || line.starts_with("err "),
                    "untyped framed reply: {line:?}"
                );
            }
        }
    }
}
