//! The versioned, connection-oriented wire API of a [`Service`] — what
//! `blowfish-serve` speaks over stdin/stdout and (through [`crate::net`])
//! over TCP. Its [`Request`] and [`Response`] are the engine's only
//! request and response types, and [`serve_request`] is the only
//! dispatch: it calls the one [`Service`] method of each verb.
//!
//! The protocol is newline-delimited text, version `blowfish/1`
//! ([`PROTOCOL_VERSION`]): one request per line, one response line per
//! request (`ok …` or `err …`); blank lines and `#` comments are
//! ignored. A server greets every connection with the [`Codec::banner`]
//! line, and a client may (but need not) negotiate explicitly with
//! `hello blowfish/1`. Commands:
//!
//! ```text
//! hello [blowfish/1]
//! tenant <id> policy=<p> eps=<ε> budget=<ε> data=<v,v,…|uniform:<v>>
//! use <id>
//! plan <id> task=<hist|range1d|range2d>
//! fit <id> as=<handle> seed=<n> [mech=<registry-id>] [task=<t>]
//! answer <id> from=<handle> <lo>..<hi> [<lo>..<hi>x<lo>..<hi> …]
//! stats [<id>]
//! help
//! quit
//! ```
//!
//! `use <id>` sets the connection's **default tenant** — connection-scoped
//! state held by the [`Codec`] — after which `plan`/`fit`/`answer` may
//! omit the leading tenant id. Unknown commands are rejected with a
//! structured `err unknown-command <verb> (accepted: …)` reply listing
//! the accepted verbs; an unsupported `hello` version gets
//! `err unsupported-version …`.
//!
//! Policies: `line:<k>`, `theta-line:<k>:<θ>`, `grid:<k>` (k×k, θ=1),
//! `theta-grid:<k>:<θ>`, `star:<k>`, `complete:<k>`. Mechanism ids are
//! the [`MechanismSpec::id`] registry ids (e.g. `dp-laplace`,
//! `theta-line-4-laplace`). Range queries give inclusive per-dimension
//! bounds `lo..hi`, dimensions joined with `x` (`2..9` is 1-D,
//! `0..3x1..4` is 2-D).
//!
//! ## The typed codec
//!
//! [`Codec`] is the typed face of the protocol: [`Codec::decode`] parses
//! one line into a [`Request`] (never panicking — every malformed input
//! is a typed [`WireError`]), [`serve_request`] dispatches a typed
//! request against a [`Service`], and [`Codec::encode`] /
//! [`Codec::encode_request`] render responses and requests back to
//! protocol lines (so the same codec drives both servers and clients;
//! `decode(encode_request(r))` round-trips). [`Codec::serve`] composes
//! the three for one input line. In-process drivers, such as the trace
//! simulator and the service benchmark, build [`Request`]s directly and
//! call [`serve_request`].
//!
//! ## The answer path
//!
//! Reads of a stored release spend no budget, so `answer` lines are the
//! traffic that grows without bound, and their path does no heap work
//! per range. [`Codec::decode`] parses every range token into one flat
//! [`RawRanges`] buffer; [`serve_request`] hands the borrowed bounds to
//! [`Service::answer`], which checks each range against the tenant's
//! domain and answers the batch from the stored release's range table;
//! [`Codec::encode`] writes the values into one pre-sized reply.
//! A line makes six heap allocations whatever its range count. Through
//! [`Codec::serve`] a 32-range line takes about 11.6 µs over a
//! `line:256` tenant and 14.6 µs over a `grid:16` one
//! (`service/wire_answer_32_*` in `BENCH_service.json`, quick mode on a
//! 2-vCPU VM); rendering the values with Rust's `{}` for `f64` is about
//! a third of that.

use std::borrow::Cow;
use std::fmt::Write as _;

use blowfish_core::{DataVector, Domain, DurabilityStats, Epsilon, PolicyGraph, RangeQuery};

use crate::service::{Service, TenantConfig, TenantStats};
use crate::spec::{MechanismSpec, Task};
use crate::EngineError;

/// The protocol version this codec speaks, as greeted in the banner and
/// negotiated by `hello`.
pub const PROTOCOL_VERSION: &str = "blowfish/1";

/// Every verb the protocol accepts, as reported by `err unknown-command`
/// and `help`.
pub const VERBS: &[&str] = &[
    "hello", "tenant", "use", "plan", "fit", "answer", "stats", "help", "quit",
];

/// A typed, decoded protocol request — what [`Codec::decode`] produces
/// and [`serve_request`] consumes.
#[derive(Clone, Debug)]
pub enum Request {
    /// `hello [version]` — explicit protocol negotiation.
    Hello {
        /// The version the client asked for; `None` accepts the
        /// server's.
        version: Option<String>,
    },
    /// `help`.
    Help,
    /// `quit` — close the connection.
    Quit,
    /// `use <id>` — set the connection's default tenant.
    Use {
        /// Tenant subsequent commands may omit.
        tenant: String,
    },
    /// `tenant <id> …` — onboard a tenant.
    Tenant {
        /// The parsed onboarding config (boxed: a config carries a whole
        /// policy graph + data vector, far larger than any other
        /// variant).
        config: Box<TenantConfig>,
        /// The policy spec token as written on the wire (kept so
        /// [`Codec::encode_request`] can render the request back).
        policy_token: String,
    },
    /// `plan <id> task=<t>`.
    Plan {
        /// Target tenant.
        tenant: String,
        /// Workload class to plan for.
        task: Task,
    },
    /// `fit <id> as=<handle> seed=<n> …`.
    Fit {
        /// Target tenant.
        tenant: String,
        /// Explicit mechanism (`mech=`), or `None` for the planner
        /// default.
        spec: Option<MechanismSpec>,
        /// Planner task used when `spec` is `None`.
        task: Task,
        /// Seed of the fit's private RNG (mandatory on the wire).
        seed: u64,
        /// Handle the estimate is stored under.
        handle: String,
    },
    /// `answer <id> from=<handle> <ranges…>`. Ranges are *raw* — bounds
    /// are validated against the tenant's domain at serve time, so
    /// decoding stays a pure function of the line.
    Answer {
        /// Target tenant.
        tenant: String,
        /// Handle of a previously fitted estimate.
        handle: String,
        /// The unvalidated per-dimension bounds, in request order.
        ranges: RawRanges,
    },
    /// `stats [<id>]`.
    Stats {
        /// Restrict to one tenant; `None` reports every tenant.
        tenant: Option<String>,
    },
}

/// One unvalidated range query as written on the wire: inclusive
/// per-dimension bounds, not yet checked against any domain, borrowed
/// from the [`RawRanges`] that hold them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawRange<'a> {
    /// Lower bound per dimension.
    pub lo: &'a [usize],
    /// Upper bound per dimension (inclusive).
    pub hi: &'a [usize],
}

impl RawRange<'_> {
    /// Validates the raw bounds against a concrete domain.
    pub fn into_query(self, domain: &Domain) -> Result<RangeQuery, EngineError> {
        Ok(RangeQuery::new(domain, self.lo.to_vec(), self.hi.to_vec())?)
    }
}

/// The unvalidated ranges of one `answer` request, in request order, in
/// one flat buffer: each range is stored as its lower-bound count, its
/// upper-bound count, then the bounds themselves. However many ranges a
/// line carries, holding them costs one allocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RawRanges {
    flat: Vec<usize>,
    len: usize,
}

impl RawRanges {
    /// The bounds of `queries`, in order: how an in-process caller builds
    /// the ranges of an `answer` request.
    pub fn from_queries(queries: &[RangeQuery]) -> RawRanges {
        let words = queries.iter().map(|q| 2 + q.lo.len() + q.hi.len()).sum();
        let mut flat = Vec::with_capacity(words);
        for q in queries {
            flat.extend_from_slice(&[q.lo.len(), q.hi.len()]);
            flat.extend_from_slice(&q.lo);
            flat.extend_from_slice(&q.hi);
        }
        RawRanges {
            flat,
            len: queries.len(),
        }
    }

    /// The number of ranges.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no ranges.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ranges, in request order.
    pub fn iter(&self) -> RawRangeIter<'_> {
        RawRangeIter {
            rest: &self.flat,
            left: self.len,
        }
    }
}

impl<'a> IntoIterator for &'a RawRanges {
    type Item = RawRange<'a>;
    type IntoIter = RawRangeIter<'a>;

    fn into_iter(self) -> RawRangeIter<'a> {
        self.iter()
    }
}

/// Iterator over the ranges of a [`RawRanges`].
#[derive(Clone, Debug)]
pub struct RawRangeIter<'a> {
    rest: &'a [usize],
    left: usize,
}

impl<'a> Iterator for RawRangeIter<'a> {
    type Item = RawRange<'a>;

    fn next(&mut self) -> Option<RawRange<'a>> {
        let (&[n_lo, n_hi], rest) = self.rest.split_first_chunk::<2>()?;
        let (lo, rest) = rest.split_at(n_lo);
        let (hi, rest) = rest.split_at(n_hi);
        self.rest = rest;
        self.left -= 1;
        Some(RawRange { lo, hi })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// A typed protocol response — what [`serve_request`] produces and
/// [`Codec::encode`] renders to one `ok …` line.
#[derive(Clone, Debug)]
pub enum Response {
    /// Negotiation accepted (`ok hello blowfish/1`).
    Hello,
    /// The help line, including the protocol version.
    Help,
    /// `quit` acknowledged (connection drivers close instead of
    /// replying; see [`WireReply::Quit`]).
    Goodbye,
    /// The connection's default tenant was set.
    Using {
        /// The tenant now implied by id-less commands.
        tenant: String,
    },
    /// A tenant was onboarded.
    TenantAdded {
        /// Tenant id.
        id: String,
        /// Recognized policy family name.
        policy: String,
        /// Domain size of the tenant's data.
        cells: usize,
    },
    /// The planner's chosen spec.
    Planned {
        /// The recommended mechanism.
        spec: MechanismSpec,
    },
    /// A fit was admitted, charged, and stored.
    Fitted {
        /// Handle the estimate is stored under.
        handle: String,
        /// The ε actually debited for this release.
        charged: f64,
        /// Tenant spend after the charge.
        spent: f64,
        /// Tenant budget remaining after the charge.
        remaining: f64,
    },
    /// Answers to a range batch, in request order.
    Answers {
        /// One value per range.
        values: Vec<f64>,
    },
    /// Budget and cache statistics.
    Stats {
        /// One row per reported tenant, sorted by id.
        tenants: Vec<TenantStats>,
        /// Total artifact derivations in the shared plan cache.
        artifact_builds: usize,
        /// Write-ahead-log health when the ledger is durable; `None`
        /// for a purely in-memory service.
        durability: Option<DurabilityStats>,
    },
}

/// Typed failure of decoding or serving one protocol line. Rendered to
/// an `err …` reply by [`Codec::encode_error`]; never a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The verb is not part of the protocol.
    UnknownCommand {
        /// The rejected verb.
        command: String,
    },
    /// `hello` asked for a version this server does not speak.
    UnsupportedVersion {
        /// The version the client requested.
        requested: String,
    },
    /// A syntactically malformed request line.
    BadRequest {
        /// What was malformed.
        what: String,
    },
    /// The request decoded but the engine rejected it.
    Engine(EngineError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownCommand { command } => {
                write!(
                    f,
                    "unknown-command {command} (accepted: {})",
                    VERBS.join("|")
                )
            }
            WireError::UnsupportedVersion { requested } => {
                write!(
                    f,
                    "unsupported-version {requested} (this server speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::BadRequest { what } => write!(f, "bad request: {what}"),
            WireError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for WireError {
    fn from(e: EngineError) -> Self {
        WireError::Engine(e)
    }
}

impl From<blowfish_core::CoreError> for WireError {
    fn from(e: blowfish_core::CoreError) -> Self {
        WireError::Engine(EngineError::Core(e))
    }
}

/// Outcome of feeding one input line to [`Codec::serve`].
#[derive(Clone, Debug, PartialEq)]
pub enum WireReply {
    /// A response line to write back (`ok …` or `err …`).
    Reply(String),
    /// The line was blank or a comment; write nothing.
    Silent,
    /// The client asked to close the connection (`quit`).
    Quit,
}

/// The protocol codec plus one connection's protocol state (currently
/// the `use` default tenant). Servers hold one codec per connection;
/// clients use the stateless [`Codec::encode_request`] /
/// [`Codec::decode`] halves directly.
#[derive(Clone, Debug, Default)]
pub struct Codec {
    default_tenant: Option<String>,
}

impl Codec {
    /// A fresh codec with no connection state.
    pub fn new() -> Codec {
        Codec::default()
    }

    /// The greeting line a server writes as the first line of every
    /// connection, leading with the protocol version.
    pub fn banner() -> String {
        format!("ok {PROTOCOL_VERSION} ready (newline-delimited requests; `help` lists commands)")
    }

    /// Parses one protocol line into a typed [`Request`]. `Ok(None)`
    /// means the line was blank or a comment (write nothing). Never
    /// panics — every malformed input is a typed [`WireError`].
    pub fn decode(&self, line: &str) -> Result<Option<Request>, WireError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        // Counted first, so that collecting allocates once however many
        // ranges an `answer` line carries.
        let mut tokens = Vec::with_capacity(line.split_whitespace().count());
        tokens.extend(line.split_whitespace());
        let (&command, rest) = tokens.split_first().expect("non-empty line");
        let request = match command {
            "hello" => Request::Hello {
                version: rest.first().map(|v| v.to_string()),
            },
            "help" => Request::Help,
            "quit" => Request::Quit,
            "use" => match rest {
                [tenant] if !tenant.contains('=') => Request::Use {
                    tenant: tenant.to_string(),
                },
                _ => return Err(bad("use needs exactly one tenant id")),
            },
            "tenant" => self.decode_tenant(rest)?,
            "plan" => {
                let (tenant, args) = self.tenant_and_args(rest, "plan")?;
                Request::Plan {
                    tenant,
                    task: parse_task(arg(args, "task").unwrap_or("hist"))?,
                }
            }
            "fit" => {
                let (tenant, args) = self.tenant_and_args(rest, "fit")?;
                let handle = arg(args, "as")
                    .ok_or_else(|| bad("fit needs as=<handle>"))?
                    .to_string();
                let spec = match arg(args, "mech") {
                    Some(mech) => Some(
                        MechanismSpec::parse(mech)
                            .ok_or_else(|| bad(&format!("unknown mechanism id {mech}")))?,
                    ),
                    None => None,
                };
                let task = parse_task(arg(args, "task").unwrap_or("hist"))?;
                // Seeds are mandatory, never defaulted: a fixed implicit
                // seed would make every unseeded release reuse one noise
                // stream — duplicate releases that still burn budget, and
                // fully predictable noise. The caller owns seed policy
                // (fresh entropy in production, fixed seeds for
                // reproducibility).
                let seed_token = arg(args, "seed").ok_or_else(|| bad("fit needs seed=<n>"))?;
                let seed = seed_token
                    .parse()
                    .map_err(|_| bad(&format!("bad seed {seed_token}")))?;
                Request::Fit {
                    tenant,
                    spec,
                    task,
                    seed,
                    handle,
                }
            }
            "answer" => {
                let (tenant, args) = self.tenant_and_args(rest, "answer")?;
                let handle = arg(args, "from")
                    .ok_or_else(|| bad("answer needs from=<handle>"))?
                    .to_string();
                let ranges = parse_raw_ranges(args)?;
                if ranges.is_empty() {
                    return Err(bad("answer needs at least one <lo>..<hi> range"));
                }
                Request::Answer {
                    tenant,
                    handle,
                    ranges,
                }
            }
            "stats" => Request::Stats {
                tenant: rest.first().map(|s| s.to_string()),
            },
            other => {
                return Err(WireError::UnknownCommand {
                    command: other.to_string(),
                })
            }
        };
        Ok(Some(request))
    }

    /// Renders a typed response as one `ok …` protocol line.
    pub fn encode(response: &Response) -> String {
        match response {
            Response::Hello => format!("ok hello {PROTOCOL_VERSION}"),
            Response::Help => format!(
                "ok help {PROTOCOL_VERSION} commands: {} \
                 (see the blowfish-engine wire module docs for syntax)",
                VERBS.join("|")
            ),
            Response::Goodbye => "ok bye".to_string(),
            Response::Using { tenant } => format!("ok use {tenant}"),
            Response::TenantAdded { id, policy, cells } => {
                format!("ok tenant {id} policy={policy} cells={cells}")
            }
            Response::Planned { spec } => format!("ok plan {}", spec.id()),
            Response::Fitted {
                handle,
                charged,
                spent,
                remaining,
            } => {
                format!("ok fit {handle} charged={charged} spent={spent} remaining={remaining}")
            }
            Response::Answers { values } => {
                // 24 bytes a value hold the space, sign, point and 17
                // significant digits of a count with room to spare, so
                // a reply is written without regrowing; a longer
                // value only regrows the string.
                let mut out = String::with_capacity(32 + 24 * values.len());
                write!(out, "ok answer {}", values.len()).expect("writing to a String");
                for v in values {
                    write!(out, " {v}").expect("writing to a String");
                }
                out
            }
            Response::Stats {
                tenants,
                artifact_builds,
                durability,
            } => {
                // Durability health is always reported so clients can
                // key off the fields unconditionally: an in-memory
                // service answers `durable=no wal_bytes=0
                // last_snapshot=0`, a durable one names its fsync
                // policy and current WAL/snapshot position.
                let (durable, wal_bytes, last_snapshot) = match durability {
                    Some(d) => (d.policy.to_string(), d.wal_bytes, d.snapshot_generation),
                    None => ("no".to_string(), 0, 0),
                };
                let mut out = format!(
                    "ok stats builds={artifact_builds} durable={durable} \
                     wal_bytes={wal_bytes} last_snapshot={last_snapshot} tenants={}",
                    tenants.len()
                );
                for t in tenants {
                    out.push_str(&format!(
                        " | {} spent={} remaining={} fits={} estimates={}",
                        t.id, t.spent, t.remaining, t.fits, t.estimates
                    ));
                }
                out
            }
        }
    }

    /// Renders a typed error as one `err …` protocol line.
    pub fn encode_error(error: &WireError) -> String {
        format!("err {error}")
    }

    /// Renders a typed request back to its canonical protocol line (the
    /// client half of the codec; `decode` round-trips it).
    pub fn encode_request(request: &Request) -> String {
        match request {
            Request::Hello { version } => match version {
                Some(v) => format!("hello {v}"),
                None => "hello".to_string(),
            },
            Request::Help => "help".to_string(),
            Request::Quit => "quit".to_string(),
            Request::Use { tenant } => format!("use {tenant}"),
            Request::Tenant {
                config,
                policy_token,
            } => {
                let data = config
                    .data
                    .counts()
                    .iter()
                    .map(|v| format!("{v}"))
                    .collect::<Vec<String>>()
                    .join(",");
                format!(
                    "tenant {} policy={policy_token} eps={} budget={} data={data}",
                    config.id,
                    config.eps.value(),
                    config.budget.value()
                )
            }
            Request::Plan { tenant, task } => {
                format!("plan {tenant} task={}", task_token(*task))
            }
            Request::Fit {
                tenant,
                spec,
                task,
                seed,
                handle,
            } => {
                let mut out = format!(
                    "fit {tenant} as={handle} seed={seed} task={}",
                    task_token(*task)
                );
                if let Some(spec) = spec {
                    out.push_str(&format!(" mech={}", spec.id()));
                }
                out
            }
            Request::Answer {
                tenant,
                handle,
                ranges,
            } => {
                let mut out = format!("answer {tenant} from={handle}");
                for r in ranges {
                    out.push(' ');
                    for (d, (lo, hi)) in r.lo.iter().zip(r.hi).enumerate() {
                        if d > 0 {
                            out.push('x');
                        }
                        write!(out, "{lo}..{hi}").expect("writing to a String");
                    }
                }
                out
            }
            Request::Stats { tenant } => match tenant {
                Some(t) => format!("stats {t}"),
                None => "stats".to_string(),
            },
        }
    }

    /// Decodes, dispatches, and encodes one input line against a
    /// service: the full per-line pipeline a connection driver runs.
    /// Updates the connection's default tenant on a successful `use`.
    ///
    /// One line never reaches this method over TCP: `stats net` is
    /// answered at the framing layer ([`net::LineSession`](crate::net))
    /// with per-server socket counters the codec cannot see. On stdio
    /// the same line falls through to the ordinary per-tenant `stats`
    /// path (and answers `err unknown tenant net`) — the single
    /// intentional stdio/TCP divergence.
    pub fn serve(&mut self, service: &Service, line: &str) -> WireReply {
        match self.decode(line) {
            Ok(None) => WireReply::Silent,
            Ok(Some(Request::Quit)) => WireReply::Quit,
            Ok(Some(request)) => match serve_request(service, request) {
                Ok(response) => {
                    if let Response::Using { tenant } = &response {
                        self.default_tenant = Some(tenant.clone());
                    }
                    WireReply::Reply(Codec::encode(&response))
                }
                Err(e) => WireReply::Reply(Codec::encode_error(&e)),
            },
            Err(e) => WireReply::Reply(Codec::encode_error(&e)),
        }
    }

    /// First positional token is the tenant id; with none (or only
    /// `key=value` arguments), the connection's `use` default applies.
    fn tenant_and_args<'r, 'a>(
        &self,
        rest: &'r [&'a str],
        command: &str,
    ) -> Result<(String, &'r [&'a str]), WireError> {
        match rest.split_first() {
            Some((id, args)) if !id.contains('=') => Ok((id.to_string(), args)),
            _ => match &self.default_tenant {
                Some(tenant) => Ok((tenant.clone(), rest)),
                None => Err(bad(&format!(
                    "{command} needs a tenant id (or `use <tenant>` first)"
                ))),
            },
        }
    }

    fn decode_tenant(&self, rest: &[&str]) -> Result<Request, WireError> {
        let (id, args) = self.tenant_and_args(rest, "tenant")?;
        let policy_token = arg(args, "policy")
            .ok_or_else(|| bad("tenant needs policy=<spec>"))?
            .to_string();
        let graph = parse_policy(&policy_token)?;
        let eps = parse_epsilon(arg(args, "eps").ok_or_else(|| bad("tenant needs eps=<ε>"))?)?;
        let budget =
            parse_epsilon(arg(args, "budget").ok_or_else(|| bad("tenant needs budget=<ε>"))?)?;
        let data = parse_data(
            graph.domain(),
            arg(args, "data").ok_or_else(|| bad("tenant needs data=<v,v,…|uniform:<v>>"))?,
        )?;
        Ok(Request::Tenant {
            config: Box::new(TenantConfig {
                id,
                graph,
                eps,
                budget,
                data,
            }),
            policy_token,
        })
    }
}

/// Dispatches one typed request against a service, producing the typed
/// response. Engine-level rejections (unknown tenant, exhausted budget,
/// bad ranges) come back as [`WireError::Engine`].
///
/// The request may be owned or borrowed. An owned `tenant` request moves
/// its config, parsed counts and all, into the service; a borrowed one
/// (a trace or a test replaying requests) is copied.
pub fn serve_request<'r>(
    service: &Service,
    request: impl Into<Cow<'r, Request>>,
) -> Result<Response, WireError> {
    let request = match request.into() {
        Cow::Owned(Request::Tenant { config, .. }) => return add_tenant(service, *config),
        request => request,
    };
    match &*request {
        Request::Hello { version } => match version {
            Some(v) if v != PROTOCOL_VERSION => Err(WireError::UnsupportedVersion {
                requested: v.clone(),
            }),
            _ => Ok(Response::Hello),
        },
        Request::Help => Ok(Response::Help),
        Request::Quit => Ok(Response::Goodbye),
        Request::Use { tenant } => {
            // Validate before the codec records the default: `use ghost`
            // must not silently aim subsequent commands at a tenant that
            // can never serve them.
            service.tenant_domain(tenant)?;
            Ok(Response::Using {
                tenant: tenant.clone(),
            })
        }
        Request::Tenant { config, .. } => add_tenant(service, TenantConfig::clone(config)),
        Request::Plan { tenant, task } => Ok(Response::Planned {
            spec: service.plan(tenant, *task)?,
        }),
        Request::Fit {
            tenant,
            spec,
            task,
            seed,
            handle,
        } => {
            let charge = service.fit(tenant, *spec, *task, *seed, handle)?;
            Ok(Response::Fitted {
                handle: handle.clone(),
                charged: charge.amount,
                spent: charge.spent,
                remaining: charge.remaining,
            })
        }
        Request::Answer {
            tenant,
            handle,
            ranges,
        } => Ok(Response::Answers {
            values: service.answer(tenant, handle, ranges.iter().map(|r| (r.lo, r.hi)))?,
        }),
        Request::Stats { tenant } => Ok(Response::Stats {
            tenants: service.stats(tenant.as_deref())?,
            artifact_builds: service.cache().stats().total_builds(),
            durability: service.ledger().durability_stats(),
        }),
    }
}

impl<'r> From<&'r Request> for Cow<'r, Request> {
    fn from(request: &'r Request) -> Self {
        Cow::Borrowed(request)
    }
}

impl From<Request> for Cow<'_, Request> {
    fn from(request: Request) -> Self {
        Cow::Owned(request)
    }
}

/// Onboards a tenant and describes it in the reply.
fn add_tenant(service: &Service, config: TenantConfig) -> Result<Response, WireError> {
    let added = Response::TenantAdded {
        id: config.id.clone(),
        policy: config.graph.name().to_string(),
        cells: config.data.domain().size(),
    };
    service.add_tenant(config)?;
    Ok(added)
}

fn bad(what: &str) -> WireError {
    WireError::BadRequest {
        what: what.to_string(),
    }
}

/// Looks up `key=` in the argument tokens.
fn arg<'a>(args: &[&'a str], key: &str) -> Option<&'a str> {
    args.iter()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

fn parse_task(token: &str) -> Result<Task, WireError> {
    match token {
        "hist" | "histogram" => Ok(Task::Histogram),
        "range1d" => Ok(Task::Range1d),
        "range2d" => Ok(Task::Range2d),
        other => Err(bad(&format!("unknown task {other}"))),
    }
}

/// The canonical wire token for a task (inverse of the parser).
pub fn task_token(task: Task) -> &'static str {
    match task {
        Task::Histogram => "hist",
        Task::Range1d => "range1d",
        Task::Range2d => "range2d",
    }
}

fn parse_epsilon(token: &str) -> Result<Epsilon, WireError> {
    let value: f64 = token
        .parse()
        .map_err(|_| bad(&format!("bad ε value {token}")))?;
    Ok(Epsilon::new(value)?)
}

/// Untrusted-input caps for wire-constructed policies: one request line
/// must not be able to make the server build an unbounded graph and take
/// it down. Onboarding a distance-threshold tenant builds no edges (it is
/// classified from its recorded θ); a star builds its k edges and tree
/// incidence at once. The caps bound what a later build can produce, such
/// as the line graph and incidence of a `mech=tree-laplace` fit on a line
/// tenant, or any caller reading a wire graph's edges (`complete:<k>`
/// alone is k(k−1)/2 edges; a θ-grid has up to 2θ(θ+1) per cell), and
/// the k or k² cells of the tenant's data. `MAX_WIRE_K`/`MAX_WIRE_THETA`
/// bound the raw parameters; `MAX_WIRE_EDGES` bounds a cheap per-family
/// upper estimate of the edge count. Generous for every workload in the
/// paper, far below allocation-failure territory.
const MAX_WIRE_K: usize = 4096;
const MAX_WIRE_THETA: usize = 64;
const MAX_WIRE_EDGES: usize = 1 << 22;

fn parse_policy(token: &str) -> Result<PolicyGraph, WireError> {
    let parts: Vec<&str> = token.split(':').collect();
    let num = |s: &str, cap: usize, what: &str| -> Result<usize, WireError> {
        let n: usize = s
            .parse()
            .map_err(|_| bad(&format!("bad number {s} in policy {token}")))?;
        if n > cap {
            return Err(bad(&format!(
                "{what} {n} exceeds the wire limit {cap} in policy {token}"
            )));
        }
        Ok(n)
    };
    let k = |s| num(s, MAX_WIRE_K, "domain size");
    let theta = |s| num(s, MAX_WIRE_THETA, "θ");
    // Upper estimate of |E| for a family, saturating; rejected before any
    // graph memory is allocated.
    let fits = |edges: usize| -> Result<(), WireError> {
        if edges > MAX_WIRE_EDGES {
            return Err(bad(&format!(
                "policy {token} would build ~{edges} edges (wire limit {MAX_WIRE_EDGES})"
            )));
        }
        Ok(())
    };
    let graph = match parts.as_slice() {
        ["line", n] => PolicyGraph::line(k(n)?),
        ["theta-line", n, t] => {
            let (k, t) = (k(n)?, theta(t)?);
            fits(k.saturating_mul(t))?;
            PolicyGraph::theta_line(k, t)
        }
        ["grid", n] => {
            let k = k(n)?;
            fits(k.saturating_mul(k).saturating_mul(2))?;
            PolicyGraph::distance_threshold(Domain::product(&[k, k])?, 1)
        }
        ["theta-grid", n, t] => {
            let (k, t) = (k(n)?, theta(t)?);
            // Per cell, canonical offsets with |δ|₁ ≤ θ number ≤ 2θ(θ+1).
            fits(k.saturating_mul(k).saturating_mul(2 * t * (t + 1)))?;
            PolicyGraph::distance_threshold(Domain::product(&[k, k])?, t)
        }
        ["star", n] => PolicyGraph::star(k(n)?),
        ["complete", n] => {
            let k = k(n)?;
            fits(k.saturating_mul(k.saturating_sub(1)) / 2)?;
            PolicyGraph::complete(k)
        }
        _ => return Err(bad(&format!("unknown policy spec {token}"))),
    };
    Ok(graph?)
}

fn parse_data(domain: &Domain, token: &str) -> Result<DataVector, WireError> {
    let counts: Vec<f64> = if let Some(v) = token.strip_prefix("uniform:") {
        let fill: f64 = v
            .parse()
            .map_err(|_| bad(&format!("bad uniform fill {v}")))?;
        vec![fill; domain.size()]
    } else {
        token
            .split(',')
            .map(|s| s.parse().map_err(|_| bad(&format!("bad data value {s}"))))
            .collect::<Result<Vec<f64>, WireError>>()?
    };
    Ok(DataVector::new(domain.clone(), counts)?)
}

/// Parses the range tokens of an `answer` line — every token without a
/// `=` — each `lo..hi` (1-D) or dims joined with `x`, into raw bounds
/// (domain validation happens at serve time). The buffer is reserved
/// once, for six words a range (the header and the bounds of a 2-D
/// range), and a range's bounds are pushed only as they parse.
fn parse_raw_ranges(args: &[&str]) -> Result<RawRanges, WireError> {
    let tokens = || args.iter().filter(|t| !t.contains('='));
    let mut ranges = RawRanges {
        flat: Vec::with_capacity(6 * tokens().count()),
        len: 0,
    };
    for token in tokens() {
        let start = ranges.flat.len();
        ranges.flat.extend_from_slice(&[0, 0]);
        for dim in token.split('x') {
            let (a, b) = dim
                .split_once("..")
                .ok_or_else(|| bad(&format!("bad range {token} (want lo..hi)")))?;
            let lo = a
                .parse()
                .map_err(|_| bad(&format!("bad range bound {a}")))?;
            let hi = b
                .parse()
                .map_err(|_| bad(&format!("bad range bound {b}")))?;
            ranges.flat.extend_from_slice(&[lo, hi]);
        }
        // The bounds went in as lo₀ hi₀ lo₁ hi₁ …; rotating each loᵢ back
        // past the i upper bounds ahead of it puts every lower bound
        // before every upper bound.
        let (header, bounds) = ranges.flat[start..].split_at_mut(2);
        let dims = bounds.len() / 2;
        for d in 1..dims {
            bounds[d..=2 * d].rotate_right(1);
        }
        header.copy_from_slice(&[dims, dims]);
        ranges.len += 1;
    }
    Ok(ranges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(service: &Service, line: &str) -> String {
        match Codec::new().serve(service, line) {
            WireReply::Reply(r) => {
                assert!(r.starts_with("ok "), "expected ok for {line:?}, got {r}");
                r
            }
            other => panic!("expected reply for {line:?}, got {other:?}"),
        }
    }

    fn err(service: &Service, line: &str) -> String {
        match Codec::new().serve(service, line) {
            WireReply::Reply(r) => {
                assert!(r.starts_with("err "), "expected err for {line:?}, got {r}");
                r
            }
            other => panic!("expected reply for {line:?}, got {other:?}"),
        }
    }

    #[test]
    fn full_session_over_the_wire() {
        let service = Service::new();
        ok(
            &service,
            "tenant acme policy=line:16 eps=0.5 budget=2.0 data=uniform:3",
        );
        let plan = ok(&service, "plan acme task=range1d");
        assert_eq!(plan, "ok plan line-laplace-consistent");
        let fit = ok(&service, "fit acme as=r1 seed=7 task=range1d");
        assert!(fit.starts_with("ok fit r1 charged=0.5"), "{fit}");
        let answer = ok(&service, "answer acme from=r1 0..15 3..9");
        assert!(answer.starts_with("ok answer 2 "), "{answer}");
        let stats = ok(&service, "stats acme");
        assert!(stats.contains("acme spent=0.5"), "{stats}");
        // Durability fields are always present; in-memory answers no/0/0.
        assert!(stats.contains("durable=no"), "{stats}");
        assert!(stats.contains("wal_bytes=0"), "{stats}");
        assert!(stats.contains("last_snapshot=0"), "{stats}");
        // Explicit mechanism id path (a baseline charges ε/2).
        let fit2 = ok(&service, "fit acme as=r2 mech=dp-laplace seed=1");
        assert!(fit2.contains("charged=0.25"), "{fit2}");
    }

    #[test]
    fn theta_line_ids_serve_at_theta_one() {
        // H^1_k is the line: its first group has no leaf edges, and every
        // estimator must still release (and be charged) over it.
        let service = Service::new();
        ok(
            &service,
            "tenant a policy=line:16 eps=1 budget=10 data=uniform:2",
        );
        for estimator in ["laplace", "group-privelet", "dawa"] {
            let fit = ok(
                &service,
                &format!("fit a as=h seed=1 task=hist mech=theta-line-1-{estimator}"),
            );
            assert!(fit.starts_with("ok fit h charged=1"), "{fit}");
            let answer = ok(&service, "answer a from=h 0..15");
            assert!(answer.starts_with("ok answer 1 "), "{answer}");
        }
        assert!(ok(&service, "stats a").contains("a spent=3"));
    }

    #[test]
    fn zero_size_policies_are_typed_errors() {
        // A zero-size domain must come back as a typed error: a panic
        // would kill a stdio server or a TCP reactor thread.
        let service = Service::new();
        let mut codec = Codec::new();
        for policy in [
            "line:0",
            "theta-line:0:2",
            "star:0",
            "complete:0",
            "grid:0",
            "theta-grid:0:2",
        ] {
            let line = format!("tenant t policy={policy} eps=0.5 budget=1 data=uniform:1");
            let reply = codec.serve(&service, &line);
            assert!(
                matches!(&reply, WireReply::Reply(r) if r.starts_with("err ")),
                "{policy}: {reply:?}"
            );
        }
        let reply = codec.serve(
            &service,
            "tenant t policy=line:4 eps=0.5 budget=1 data=uniform:1",
        );
        assert_eq!(
            reply,
            WireReply::Reply("ok tenant t policy=G^1_4 cells=4".into())
        );
    }

    #[test]
    fn non_finite_tenant_data_is_rejected() {
        let service = Service::new();
        err(
            &service,
            "tenant a policy=line:4 eps=0.5 budget=1 data=uniform:nan",
        );
        err(
            &service,
            "tenant b policy=line:4 eps=0.5 budget=1 data=1,inf,2,3",
        );
        let stats = ok(&service, "stats");
        assert!(stats.contains("tenants=0"), "{stats}");
    }

    #[test]
    fn non_finite_releases_are_refused() {
        let service = Service::new();
        // A tiny ε overflows the Laplace scale: each fit is charged, its
        // NaN/inf release is refused, and nothing is stored.
        for (tenant, eps, mechs) in [
            ("h", "1e-308", &["", " mech=dp-laplace"][..]),
            ("m", "1e-307", &[" mech=mm-hist-hierarchical"][..]),
        ] {
            ok(
                &service,
                &format!("tenant {tenant} policy=line:16 eps={eps} budget=1 data=uniform:3"),
            );
            for mech in mechs {
                let e = err(&service, &format!("fit {tenant} as=x seed=1{mech}"));
                assert!(e.contains("non-finite"), "{e}");
                assert_eq!(
                    err(&service, &format!("answer {tenant} from=x 0..15 3..4 0..0")),
                    "err no estimate stored under handle x"
                );
            }
            let stats = ok(&service, &format!("stats {tenant}"));
            let fits = format!(" fits={} estimates=0", mechs.len());
            assert!(stats.ends_with(&fits), "{stats}");
        }
        // Counts that are each finite but whose total overflows are
        // refused at onboarding, before any ledger account exists.
        err(
            &service,
            "tenant j policy=line:16 eps=0.5 budget=1 data=uniform:1e308",
        );
        assert!(service.ledger().spent("j").is_err());
    }

    #[test]
    fn tiny_epsilons_get_typed_replies_on_every_registry_id() {
        // Near the smallest subnormal ε a budget share underflows to 0:
        // DAWA's partition share, a baseline's ε/2, θ-line's ε/ℓ or
        // θ-grid's ε/ℓ and ε/(2ℓ). Every fit still gets a typed reply, and
        // no fit is charged ε = 0. The θ shares are derived when their
        // mechanism is built, so a θ fit refused for one is not charged
        // at all; a θ release refused for a non-finite value drew its
        // noise, so it stays charged.
        let aliases = [
            "mm-hist-identity",
            "mm-range-identity",
            "mm-range-hierarchical",
            "mm-range-wavelet",
        ];
        for (policy, theta) in [
            ("line:16", 4),
            ("theta-line:64:4", 4),
            ("star:16", 4),
            ("grid:8", 2),
            ("theta-grid:8:2", 2),
        ] {
            for eps in ["5e-324", "1e-323", "2e-323"] {
                // One tenant per fit, so each stats line shows one fit.
                let service = Service::new();
                let ids = MechanismSpec::all(theta).into_iter().map(|s| s.id());
                for (i, id) in ids.chain(aliases.map(String::from)).enumerate() {
                    ok(
                        &service,
                        &format!("tenant t{i} policy={policy} eps={eps} budget=1 data=uniform:3"),
                    );
                    let line = format!("fit t{i} as=z seed=5 mech={id}");
                    let reply = match Codec::new().serve(&service, &line) {
                        WireReply::Reply(r) => r,
                        other => panic!("expected a reply for {line:?}, got {other:?}"),
                    };
                    assert!(
                        reply.starts_with("ok ") || reply.starts_with("err "),
                        "{policy} ε={eps} {line:?}: {reply}"
                    );
                    let stats = ok(&service, &format!("stats t{i}"));
                    let field = |name: &str| -> f64 {
                        let value = stats.split_whitespace().find_map(|t| t.strip_prefix(name));
                        value.expect(name).parse().expect(name)
                    };
                    assert!(
                        field("fits=") == 0.0 || field("spent=") > 0.0,
                        "{policy} ε={eps} {id}: a fit charged nothing: {stats}"
                    );
                    let theta_id = id.starts_with("theta-line-") || id.starts_with("theta-grid-");
                    if theta_id
                        && !id.ends_with("-dawa")
                        && reply.starts_with("err ")
                        && !reply.contains("non-finite release")
                    {
                        assert!(
                            field("fits=") == 0.0 && field("spent=") == 0.0,
                            "{policy} ε={eps} {id}: a refused θ fit was charged: {reply} | {stats}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn releases_whose_range_answers_can_overflow_are_refused() {
        let service = Service::new();
        // Every cell and table entry of these releases is finite, but a
        // difference of prefix sums (1-D) or a signed sum of summed-area
        // entries (2-D) of them is not: `8..15` and `1..3x1..3` would
        // answer inf.
        for (tenant, policy, eps, ranges) in [
            ("a", "line:16", "1.2e-307", "8..15 0..15 0..7"),
            ("b", "grid:4", "1e-307", "0..3x0..3 1..3x1..3 2..3x0..1"),
        ] {
            ok(
                &service,
                &format!("tenant {tenant} policy={policy} eps={eps} budget=1 data=uniform:3"),
            );
            assert_eq!(
                err(
                    &service,
                    &format!("fit {tenant} as=x seed=5 mech=dp-laplace")
                ),
                "err strategy error: non-finite release (NaN or inf)"
            );
            assert_eq!(
                err(&service, &format!("answer {tenant} from=x {ranges}")),
                "err no estimate stored under handle x"
            );
            let stats = ok(&service, &format!("stats {tenant}"));
            assert!(stats.ends_with(" fits=1 estimates=0"), "{stats}");
        }
    }

    #[test]
    fn durable_service_reports_wal_health_over_the_wire() {
        let dir =
            std::env::temp_dir().join(format!("blowfish-wire-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (ledger, _) =
            blowfish_core::Ledger::durable(&dir, blowfish_core::LedgerDurability::default())
                .unwrap();
        let service = Service::with_ledger(std::sync::Arc::new(ledger));
        ok(
            &service,
            "tenant acme policy=line:8 eps=0.5 budget=2.0 data=uniform:1",
        );
        ok(&service, "fit acme as=r1 seed=5");
        let stats = ok(&service, "stats");
        assert!(stats.contains("durable=per-charge"), "{stats}");
        assert!(!stats.contains("wal_bytes=0 "), "{stats}");
        assert!(stats.contains("last_snapshot=0"), "{stats}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_dimensional_ranges_parse() {
        let service = Service::new();
        ok(
            &service,
            "tenant geo policy=grid:8 eps=0.5 budget=4.0 data=uniform:1",
        );
        ok(&service, "fit geo as=g1 seed=3 task=range2d");
        let answer = ok(&service, "answer geo from=g1 0..7x0..7 1..3x2..5");
        assert!(answer.starts_with("ok answer 2 "), "{answer}");
    }

    #[test]
    fn malformed_lines_become_err_replies() {
        let service = Service::new();
        err(&service, "frobnicate");
        err(&service, "tenant");
        err(
            &service,
            "tenant acme policy=klein-bottle:4 eps=1 budget=1 data=uniform:0",
        );
        err(
            &service,
            "tenant acme policy=line:4 eps=zero budget=1 data=uniform:0",
        );
        err(
            &service,
            "tenant acme policy=line:4 eps=0.5 budget=1 data=1,2,3",
        );
        ok(
            &service,
            "tenant acme policy=line:4 eps=0.5 budget=1 data=1,2,3,4",
        );
        err(&service, "plan ghost");
        err(&service, "fit acme seed=1");
        // An unseeded fit is rejected — seed 0 must never be implied.
        err(&service, "fit acme as=h");
        err(&service, "answer acme from=nope 0..3");
        ok(&service, "fit acme as=h seed=1");
        err(&service, "answer acme from=h");
        err(&service, "answer acme from=h 3..1");
        err(&service, "answer acme from=h 0..99");
        // Budget exhaustion surfaces the typed core error's message.
        ok(&service, "fit acme as=h2 seed=2");
        let e = err(&service, "fit acme as=h3 seed=3");
        assert!(e.contains("budget exhausted"), "{e}");
    }

    #[test]
    fn unknown_commands_are_structured_with_the_verb_list() {
        let service = Service::new();
        let e = err(&service, "frobnicate all the things");
        assert!(e.starts_with("err unknown-command frobnicate"), "{e}");
        for verb in VERBS {
            assert!(e.contains(verb), "verb list missing {verb}: {e}");
        }
        // The typed decode error matches the rendered reply.
        let decoded = Codec::new().decode("frobnicate").unwrap_err();
        assert_eq!(
            decoded,
            WireError::UnknownCommand {
                command: "frobnicate".to_string()
            }
        );
    }

    #[test]
    fn version_negotiation_and_banner() {
        let service = Service::new();
        assert!(Codec::banner().starts_with("ok blowfish/1 "));
        assert_eq!(ok(&service, "hello"), "ok hello blowfish/1");
        assert_eq!(ok(&service, "hello blowfish/1"), "ok hello blowfish/1");
        let e = err(&service, "hello blowfish/2");
        assert!(e.starts_with("err unsupported-version blowfish/2"), "{e}");
        // `help` reports the protocol version.
        let h = ok(&service, "help");
        assert!(h.starts_with("ok help blowfish/1 "), "{h}");
        assert!(h.contains("tenant|use|plan"), "{h}");
    }

    #[test]
    fn use_sets_the_connection_default_tenant() {
        let service = Service::new();
        let mut codec = Codec::new();
        let onboard = codec.serve(
            &service,
            "tenant acme policy=line:8 eps=0.5 budget=4.0 data=uniform:2",
        );
        assert!(matches!(onboard, WireReply::Reply(r) if r.starts_with("ok tenant acme")));
        // Without a default, id-less commands are rejected with a hint.
        let bare = codec.serve(&service, "fit as=r1 seed=1");
        assert!(
            matches!(&bare, WireReply::Reply(r) if r.contains("use <tenant>")),
            "{bare:?}"
        );
        // `use ghost` is rejected and leaves no default behind.
        let ghost = codec.serve(&service, "use ghost");
        assert!(matches!(&ghost, WireReply::Reply(r) if r.starts_with("err unknown tenant")));
        assert_eq!(codec.default_tenant.as_deref(), None);
        // After `use acme`, the tenant id is implied.
        assert_eq!(
            codec.serve(&service, "use acme"),
            WireReply::Reply("ok use acme".to_string())
        );
        assert_eq!(codec.default_tenant.as_deref(), Some("acme"));
        let fit = codec.serve(&service, "fit as=r1 seed=1");
        assert!(
            matches!(&fit, WireReply::Reply(r) if r.starts_with("ok fit r1 ")),
            "{fit:?}"
        );
        let answer = codec.serve(&service, "answer from=r1 0..7");
        assert!(
            matches!(&answer, WireReply::Reply(r) if r.starts_with("ok answer 1 ")),
            "{answer:?}"
        );
        // Explicit ids still win over the default.
        let ghost_fit = codec.serve(&service, "fit ghost as=r2 seed=2");
        assert!(matches!(&ghost_fit, WireReply::Reply(r) if r.starts_with("err unknown tenant")));
        // A fresh connection's codec carries no default.
        let stateless = Codec::new().serve(&service, "fit as=r9 seed=9");
        assert!(matches!(&stateless, WireReply::Reply(r) if r.starts_with("err ")));
    }

    #[test]
    fn encode_request_decode_round_trips() {
        let codec = Codec::new();
        let lines = [
            "hello blowfish/1",
            "help",
            "quit",
            "use acme",
            "tenant acme policy=line:4 eps=0.5 budget=2 data=1,2,3,4",
            "plan acme task=range1d",
            "fit acme as=r1 seed=7 task=range2d mech=dp-laplace",
            "answer acme from=r1 0..3 1..2x0..1",
            "answer acme from=r1 1..2x3..4x5..6 0..1x2..3x4..5x6..7",
            "stats",
            "stats acme",
        ];
        for line in lines {
            let request = codec
                .decode(line)
                .unwrap_or_else(|e| panic!("{line}: {e}"))
                .unwrap_or_else(|| panic!("{line}: silent"));
            let rendered = Codec::encode_request(&request);
            // Canonical lines render back byte-identically…
            assert_eq!(rendered, line, "round trip for {line}");
            // …and re-decode to a request that renders the same again.
            let again = codec.decode(&rendered).unwrap().unwrap();
            assert_eq!(Codec::encode_request(&again), rendered);
        }
        // Ranges built in process from queries render as decoded ones do.
        let d = Domain::product(&[4, 4]).unwrap();
        let request = Request::Answer {
            tenant: "acme".into(),
            handle: "r1".into(),
            ranges: RawRanges::from_queries(&[
                RangeQuery::new(&d, vec![0, 1], vec![3, 2]).unwrap(),
                RangeQuery::new(&d, vec![2, 2], vec![2, 3]).unwrap(),
            ]),
        };
        let line = "answer acme from=r1 0..3x1..2 2..2x2..3";
        assert_eq!(Codec::encode_request(&request), line);
        let decoded = codec.decode(line).unwrap().unwrap();
        assert_eq!(format!("{decoded:?}"), format!("{request:?}"));
    }

    #[test]
    fn oversized_policies_are_rejected_before_allocation() {
        // One request line must not be able to OOM the server.
        let service = Service::new();
        err(
            &service,
            "tenant a policy=complete:200000 eps=1 budget=1 data=uniform:0",
        );
        err(
            &service,
            "tenant a policy=line:999999999 eps=1 budget=1 data=uniform:0",
        );
        err(
            &service,
            "tenant a policy=theta-grid:4096:64 eps=1 budget=1 data=uniform:0",
        );
        err(
            &service,
            "tenant a policy=theta-line:4096:9999 eps=1 budget=1 data=uniform:0",
        );
        // In-cap requests still work.
        ok(
            &service,
            "tenant a policy=complete:64 eps=1 budget=1 data=uniform:0",
        );
    }

    #[test]
    fn blank_comment_and_quit_lines() {
        let service = Service::new();
        assert_eq!(Codec::new().serve(&service, ""), WireReply::Silent);
        assert_eq!(
            Codec::new().serve(&service, "  # a comment"),
            WireReply::Silent
        );
        assert_eq!(Codec::new().serve(&service, "quit"), WireReply::Quit);
        assert!(matches!(
            Codec::new().serve(&service, "help"),
            WireReply::Reply(r) if r.starts_with("ok help")
        ));
        // The typed pipeline agrees: quit decodes, and even dispatching
        // it directly is well-defined.
        let request = Codec::new().decode("quit").unwrap().unwrap();
        assert!(matches!(request, Request::Quit));
        let response = serve_request(&service, &request).unwrap();
        assert_eq!(Codec::encode(&response), "ok bye");
    }
}
