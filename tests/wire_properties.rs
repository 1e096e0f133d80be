//! Property tests for the `blowfish/1` wire codec: the parser sits on
//! the untrusted side of a socket, so *no* input line may panic it,
//! allocate unboundedly, or produce anything but a typed outcome.
//!
//! * **byte soup** — arbitrary bytes (lossily UTF-8-decoded, the same
//!   way the TCP framing layer decodes them) always yield `ok …`,
//!   `err …`, `Silent`, or `Quit`, never a panic;
//! * **token soup** — lines assembled from protocol-shaped fragments
//!   (real verbs, `key=value` pairs, policy tokens, range syntax,
//!   numbers and junk) probe the parser's deeper branches with the same
//!   guarantee, against a live service so engine dispatch runs too;
//! * **round-trip** — `decode(encode_request(r))` re-renders to the same
//!   canonical line for every decodable request, so the client and
//!   server halves of the codec cannot drift apart;
//! * **pinned answer replies** — the `answer` error lines byte for byte,
//!   including which error wins on a line with two faults, and seeded
//!   batches whose wire replies equal `Service::answer`'s values;
//! * **pinned session transcript** — every other verb's replies and
//!   typed errors, byte for byte.

use blowfish_privacy::engine::wire;
use blowfish_privacy::prelude::*;
use proptest::prelude::*;

/// Every reply a codec may produce for one line: an `ok`/`err` line,
/// silence, or quit. Anything else (especially a panic) is a bug.
fn assert_typed_outcome(service: &Service, line: &str) -> Result<(), TestCaseError> {
    let mut codec = Codec::new();
    match codec.serve(service, line) {
        wire::WireReply::Reply(reply) => {
            prop_assert!(
                reply.starts_with("ok ") || reply.starts_with("err "),
                "untyped reply for {line:?}: {reply}"
            );
            prop_assert!(
                !reply.contains('\n'),
                "reply for one line spans lines: {reply:?}"
            );
        }
        wire::WireReply::Silent | wire::WireReply::Quit => {}
    }
    // The pure decode half agrees: it either produces a typed request
    // (or silence) or a typed error — and in the error case the serve
    // pipeline above must have rendered exactly that error.
    match codec.decode(line) {
        Ok(_) | Err(_) => {}
    }
    Ok(())
}

/// Protocol-shaped fragments for the token-soup generator: verbs,
/// arguments, policy/range/data tokens, and junk, all drawn by index so
/// the shim needs no string strategies.
const FRAGMENTS: &[&str] = &[
    "tenant",
    "use",
    "plan",
    "fit",
    "answer",
    "stats",
    "hello",
    "help",
    "quit",
    "frobnicate",
    "acme",
    "ghost",
    "policy=line:16",
    "policy=theta-line:8:3",
    "policy=grid:4",
    "policy=complete:99999999",
    "policy=star:0",
    "policy=line:-3",
    "eps=0.5",
    "eps=zero",
    "eps=-1",
    "budget=1.0",
    "budget=1e308",
    "data=uniform:3",
    "data=1,2,3",
    "data=1,,2",
    "task=hist",
    "task=range1d",
    "task=range9d",
    "as=h",
    "as=",
    "seed=7",
    "seed=-1",
    "seed=99999999999999999999",
    "mech=dp-laplace",
    "mech=nope",
    "from=h",
    "0..15",
    "3..1",
    "0..3x1..4",
    "0..3x",
    "..",
    "x",
    "=",
    "#",
    "blowfish/1",
    "blowfish/2",
    "0",
    "-0",
    "∞",
    "NaN",
    "\u{0}",
    "é",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_soup_never_panics_the_codec(
        bytes in prop_vec((0usize..256).prop_map(|b| b as u8), 0usize..200),
    ) {
        let service = Service::new();
        // The TCP framing layer decodes request lines lossily; feed the
        // codec exactly what it would see.
        let line = String::from_utf8_lossy(&bytes);
        assert_typed_outcome(&service, &line)?;
    }

    #[test]
    fn token_soup_never_panics_the_codec(picks in prop_vec(0usize..FRAGMENTS.len(), 0usize..8)) {
        let service = Service::new();
        service
            .add_tenant(TenantConfig {
                id: "acme".to_string(),
                graph: PolicyGraph::line(16).unwrap(),
                eps: Epsilon::new(0.5).unwrap(),
                budget: Epsilon::new(2.0).unwrap(),
                data: DataVector::new(Domain::one_dim(16), vec![1.0; 16]).unwrap(),
            })
            .unwrap();
        let line = picks
            .iter()
            .map(|&i| FRAGMENTS[i])
            .collect::<Vec<&str>>()
            .join(" ");
        assert_typed_outcome(&service, &line)?;
    }

    #[test]
    fn decodable_requests_round_trip_canonically(picks in prop_vec(0usize..FRAGMENTS.len(), 1usize..8)) {
        let codec = Codec::new();
        let line = picks
            .iter()
            .map(|&i| FRAGMENTS[i])
            .collect::<Vec<&str>>()
            .join(" ");
        // Whenever token soup happens to decode, the canonical render
        // must re-decode to a request that renders identically (the
        // codec's fixed point is reached in one step).
        if let Ok(Some(request)) = codec.decode(&line) {
            let canonical = Codec::encode_request(&request);
            let again = codec.decode(&canonical);
            prop_assert!(
                again.is_ok(),
                "canonical render of {line:?} failed to re-decode: {canonical:?}"
            );
            if let Ok(Some(request2)) = again {
                let rendered = Codec::encode_request(&request2);
                prop_assert!(
                    rendered == canonical,
                    "canonical render is not a fixed point for {line:?}: \
                     {canonical:?} vs {rendered:?}"
                );
            }
        }
    }
}

/// Replies to `answer` lines, byte for byte: the error of each faulty
/// line, which error wins when a line has more than one fault (the range
/// is checked before the handle), and, for seeded random batches, the
/// values `Service::answer` returns for the same queries.
#[test]
fn answer_replies_are_pinned_byte_for_byte() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let service = Service::new();
    let mut codec = Codec::new();
    for line in [
        "tenant acme policy=line:16 eps=0.5 budget=4 data=uniform:3",
        "tenant geo policy=grid:4 eps=0.5 budget=4 data=uniform:2",
        "fit acme as=h seed=1",
        "fit geo as=h seed=2",
    ] {
        match codec.serve(&service, line) {
            wire::WireReply::Reply(r) if r.starts_with("ok ") => {}
            other => panic!("{line}: {other:?}"),
        }
    }
    let pinned = [
        (
            "answer acme from=h 3..1",
            "err core error: invalid range [3, 1] over 16 values",
        ),
        (
            "answer acme from=h 0..99",
            "err core error: invalid range [0, 99] over 16 values",
        ),
        (
            "answer acme from=h 0..3x1..4",
            "err core error: expected 1 dimensions, got 2",
        ),
        (
            "answer acme from=h 0..1x0..1x0..1",
            "err core error: expected 1 dimensions, got 3",
        ),
        (
            "answer acme from=nope 0..99",
            "err core error: invalid range [0, 99] over 16 values",
        ),
        (
            "answer acme from=nope 0..3",
            "err no estimate stored under handle nope",
        ),
        (
            "answer geo from=h 0..3",
            "err core error: expected 2 dimensions, got 1",
        ),
        (
            "answer geo from=h 0..3x0..4",
            "err core error: invalid range [0, 4] over 4 values",
        ),
        ("answer ghost from=h 0..3", "err unknown tenant ghost"),
        (
            "answer acme from=h 0..15 3..9 x",
            "err bad request: bad range x (want lo..hi)",
        ),
        (
            "answer acme from=h 0..15 3..a",
            "err bad request: bad range bound a",
        ),
        (
            "answer acme from=h",
            "err bad request: answer needs at least one <lo>..<hi> range",
        ),
    ];
    for (line, want) in pinned {
        assert_eq!(
            codec.serve(&service, line),
            wire::WireReply::Reply(want.to_string()),
            "{line}"
        );
    }

    let mut rng = StdRng::seed_from_u64(18);
    for (tenant, domain) in [
        ("acme", Domain::one_dim(16)),
        ("geo", Domain::product(&[4, 4]).unwrap()),
    ] {
        for n in (1..=32).step_by(3) {
            let queries = blowfish_privacy::core::random_range_specs(&domain, n, &mut rng);
            let mut line = format!("answer {tenant} from=h");
            for q in &queries {
                let dims: Vec<String> =
                    q.lo.iter()
                        .zip(&q.hi)
                        .map(|(lo, hi)| format!("{lo}..{hi}"))
                        .collect();
                line.push(' ');
                line.push_str(&dims.join("x"));
            }
            let values = service
                .answer(tenant, "h", queries.iter().map(|q| (&q.lo[..], &q.hi[..])))
                .unwrap();
            let want = Codec::encode(&wire::Response::Answers { values });
            assert!(want.starts_with(&format!("ok answer {n} ")), "{want}");
            assert_eq!(
                codec.serve(&service, &line),
                wire::WireReply::Reply(want),
                "{line}"
            );
        }
    }
}

/// A scripted session, every reply byte for byte: negotiation, `help`,
/// onboarding, `use`, planning, fits by planner and by `mech=`, budget
/// exhaustion, `stats <id>` and `stats`, an unknown verb, and the typed
/// error of each rejected line (unsupported version, duplicate tenant,
/// unknown tenant on `plan`/`fit`/`stats`/`use`, bad `task=`, unknown
/// `mech=`).
#[test]
fn session_transcript_is_pinned_byte_for_byte() {
    // Each request line is followed by its reply.
    let transcript = "\
hello
ok hello blowfish/1
hello blowfish/1
ok hello blowfish/1
hello blowfish/2
err unsupported-version blowfish/2 (this server speaks blowfish/1)
help
ok help blowfish/1 commands: hello|tenant|use|plan|fit|answer|stats|help|quit (see the blowfish-engine wire module docs for syntax)
tenant acme policy=line:16 eps=0.5 budget=1.25 data=uniform:3
ok tenant acme policy=G^1_16 cells=16
tenant geo policy=grid:4 eps=0.5 budget=4 data=uniform:2
ok tenant geo policy=G^1_{k^2} cells=16
tenant acme policy=line:16 eps=0.5 budget=1 data=uniform:3
err core error: tenant acme is already registered
plan acme task=range1d
ok plan line-laplace-consistent
plan acme
ok plan line-laplace-consistent
plan geo task=range2d
ok plan grid
plan ghost task=hist
err unknown tenant ghost
plan acme task=cubes
err bad request: unknown task cubes
fit acme as=r1 seed=7 task=range1d
ok fit r1 charged=0.5 spent=0.5 remaining=0.75
fit acme as=r2 seed=8 mech=dp-laplace
ok fit r2 charged=0.25 spent=0.75 remaining=0.5
fit ghost as=r1 seed=1
err unknown tenant ghost
fit acme as=r3 seed=9 mech=no-such-mech
err bad request: unknown mechanism id no-such-mech
fit acme as=r3 seed=9 task=cubes
err bad request: unknown task cubes
use ghost
err unknown tenant ghost
use geo
ok use geo
fit as=g1 seed=3 task=range2d
ok fit g1 charged=0.5 spent=0.5 remaining=3.5
fit as=g2 seed=4 mech=dp-laplace
ok fit g2 charged=0.25 spent=0.75 remaining=3.25
plan task=range2d
ok plan grid
fit acme as=r4 seed=10
ok fit r4 charged=0.5 spent=1.25 remaining=0
fit acme as=r5 seed=11
err core error: budget exhausted for tenant acme: spent 1.25 of 1.25, requested 0.5
stats acme
ok stats builds=1 durable=no wal_bytes=0 last_snapshot=0 tenants=1 | acme spent=1.25 remaining=0 fits=3 estimates=3
stats geo
ok stats builds=1 durable=no wal_bytes=0 last_snapshot=0 tenants=1 | geo spent=0.75 remaining=3.25 fits=2 estimates=2
stats ghost
err unknown tenant ghost
stats
ok stats builds=1 durable=no wal_bytes=0 last_snapshot=0 tenants=2 | acme spent=1.25 remaining=0 fits=3 estimates=3 | geo spent=0.75 remaining=3.25 fits=2 estimates=2
frobnicate now
err unknown-command frobnicate (accepted: hello|tenant|use|plan|fit|answer|stats|help|quit)";
    let service = Service::new();
    let mut codec = Codec::new();
    let lines: Vec<&str> = transcript.lines().collect();
    for pair in lines.chunks(2) {
        let [line, want] = pair else {
            panic!("unpaired line {pair:?}")
        };
        assert_eq!(
            codec.serve(&service, line),
            wire::WireReply::Reply(want.to_string()),
            "{line}"
        );
    }
}

/// Each matrix-mechanism alias id, fitted over the wire, replies and
/// answers byte for byte as its target id fitted from the same seed on
/// an identical tenant, over a 1-D and a 2-D domain.
#[test]
fn matrix_aliases_answer_like_their_targets() {
    for (policy, ranges) in [
        ("line:100", "0..99 3..3 17..64 0..0 50..99 12..87"),
        ("grid:8", "0..7x0..7 3..3x5..5 1..6x0..2 4..7x2..7"),
    ] {
        for (alias, target) in [
            ("mm-range-hierarchical", "mm-hist-hierarchical"),
            ("mm-range-wavelet", "mm-hist-wavelet"),
            ("mm-hist-identity", "dp-laplace"),
            ("mm-range-identity", "dp-laplace"),
        ] {
            let service = Service::new();
            let mut codec = Codec::new();
            let mut serve = |line: String| match codec.serve(&service, &line) {
                wire::WireReply::Reply(r) if r.starts_with("ok ") => r,
                other => panic!("{line}: {other:?}"),
            };
            let [a, b] = [("a", alias), ("b", target)].map(|(tenant, mech)| {
                serve(format!(
                    "tenant {tenant} policy={policy} eps=0.5 budget=4 data=uniform:3"
                ));
                [
                    serve(format!("fit {tenant} as=h seed=21 mech={mech}")),
                    serve(format!("answer {tenant} from=h {ranges}")),
                ]
            });
            assert_eq!(a, b, "{policy}: {alias} against {target}");
        }
    }
}
