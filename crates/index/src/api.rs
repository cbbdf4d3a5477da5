//! The query API: what `gsb serve` answers, and what `gsb router`
//! answers again from its shards, defined once.
//!
//! * **Routes.** [`parse_route`] maps a request line to a [`Route`] and
//!   a result limit. It is total: any garbage maps to a typed error
//!   route, never a panic.
//! * **Endpoints.** Every route is counted under one [`Endpoint`], and
//!   one table holds each endpoint's label, its path, and the request,
//!   latency and rate-limit series keys that both services record
//!   into. [`endpoint_paths`] is the list both print at start-up.
//! * **Answers.** [`Answer`] is a typed `/get`, `/max`, list or error
//!   answer with one renderer. The server renders the answers it
//!   computes from its index. The router reads shard bodies that carry
//!   shard-local ids back into the same types ([`parse_clique`] for
//!   `/get`, [`ListAnswer::parse`] for lists), merges list answers
//!   ([`ListAnswer::absorb`], [`ListAnswer::finish`]) and renders the
//!   result with the same code; a `/max` body holds no id and passes
//!   through. So a healthy routed answer is byte-identical to one
//!   server's over the unsplit index.
//!
//! Endpoints (all GET, JSON responses):
//!
//! | path                 | answer                                   |
//! |----------------------|------------------------------------------|
//! | `/health`            | liveness                                 |
//! | `/ready`             | readiness (503 while draining)           |
//! | `/stats`             | index statistics                         |
//! | `/get/<id>`          | one clique by id                         |
//! | `/containing/<v>`    | cliques containing vertex v              |
//! | `/size/<lo>/<hi>`    | cliques with size in `lo..=hi`           |
//! | `/max`               | one maximum clique                       |
//! | `/overlap/<v>/<w>`   | cliques containing both v and w          |
//! | `/metrics`           | Prometheus text exposition (live)        |
//! | `/metrics-json`      | the `--metrics-out` JSON snapshot (live) |
//!
//! Clique-list endpoints accept `?limit=K` (default 1000) and report
//! the full `count` alongside the possibly-truncated `cliques` array.
//! `/health`, `/ready`, `/stats` and the metrics endpoints are each
//! service's own; the rest are answered the same by both.
//!
//! The list merge rule: counts and `degraded` add; ids are made global
//! (shard `id_lo` added), sorted, and cut at the limit; cliques are
//! concatenated in shard order and cut at the limit; `first_id` is the
//! minimum over the shards that matched, 0 when none did; and
//! `missing_shards` is rendered only when a shard did not answer.
//!
//! A list answer holds its cliques flat ([`FlatCliques`], one vertex
//! buffer and one end per clique), whether the server read them from
//! its blocks or the router parsed them from shard bodies, so no answer
//! allocates per clique. Every body is written into one buffer reserved
//! once for its largest possible size, and every integer array in it —
//! ids, cliques, `missing_shards` — goes through one writer,
//! `push_ints`, that appends the digits in place.

use crate::format::FlatCliques;
use crate::http::{Reply, CONTENT_TYPE_JSON};
use gsb_core::{Clique, Vertex};
use gsb_telemetry::json::{self, JsonValue};
use std::fmt::Write as _;

/// A parsed request target, ready for rate limiting and execution.
pub(crate) enum Route {
    /// `/` or `/health`.
    Health,
    /// `/ready` — readiness (index loaded *and* not draining),
    /// distinct from liveness: a draining server is alive but not
    /// ready, so router probes eject it before the drain sweep sheds.
    Ready,
    /// `/stats`.
    Stats,
    /// `/get/<id>` — one clique by id (the router's unit of routing).
    Get(u64),
    /// `/max`.
    Max,
    /// `/containing/<v>`.
    Containing(u32),
    /// `/size/<lo>/<hi>`.
    Size(u32, u32),
    /// `/overlap/<v>/<w>`.
    Overlap(u32, u32),
    /// `/metrics` — Prometheus text exposition.
    Metrics,
    /// `/metrics-json` — the shutdown metrics snapshot, live.
    MetricsJson,
    /// Unknown path.
    NotFound,
    /// Non-GET method.
    MethodNotAllowed,
    /// Malformed request line or parameters.
    Bad(&'static str),
}

impl Route {
    /// The endpoint this route is counted under.
    pub(crate) fn endpoint(&self) -> Endpoint {
        match self {
            Route::Health => Endpoint::Health,
            Route::Ready => Endpoint::Ready,
            Route::Stats => Endpoint::Stats,
            Route::Get(_) => Endpoint::Get,
            Route::Max => Endpoint::Max,
            Route::Containing(_) => Endpoint::Containing,
            Route::Size(..) => Endpoint::Size,
            Route::Overlap(..) => Endpoint::Overlap,
            Route::Metrics => Endpoint::Metrics,
            Route::MetricsJson => Endpoint::MetricsJson,
            Route::NotFound => Endpoint::NotFound,
            Route::MethodNotAllowed | Route::Bad(_) => Endpoint::BadRequest,
        }
    }

    /// The answer of an error route (unknown path, non-GET method,
    /// malformed parameters): 404, 405 or 400.
    pub(crate) fn error(&self) -> Answer {
        match self {
            Route::MethodNotAllowed => Answer::Error(405, "only GET is supported".into()),
            Route::Bad(message) => Answer::Error(400, (*message).into()),
            _ => Answer::Error(404, "no such endpoint".into()),
        }
    }
}

/// Parse the request line into a route + result limit. Total function:
/// any garbage maps to a typed `Route` variant, never a panic.
pub(crate) fn parse_route(request_line: &str) -> (Route, usize) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return (Route::MethodNotAllowed, 0);
    }
    if target.is_empty() || target.len() > 2048 {
        return (Route::Bad("malformed request target"), 0);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let limit = parse_limit(query);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let route = match segments.as_slice() {
        [] | ["health"] => Route::Health,
        ["ready"] => Route::Ready,
        ["stats"] => Route::Stats,
        ["max"] => Route::Max,
        ["get", id] => match id.parse::<u64>() {
            Ok(id) => Route::Get(id),
            Err(_) => Route::Bad("clique id must be a number"),
        },
        ["metrics"] => Route::Metrics,
        ["metrics-json"] => Route::MetricsJson,
        ["containing", v] => match v.parse::<u32>() {
            Ok(v) => Route::Containing(v),
            Err(_) => Route::Bad("vertex must be a number"),
        },
        ["size", lo, hi] => match (lo.parse::<u32>(), hi.parse::<u32>()) {
            (Ok(lo), Ok(hi)) if lo <= hi => Route::Size(lo, hi),
            _ => Route::Bad("size range must be /size/<lo>/<hi> with lo <= hi"),
        },
        ["overlap", v, w] => match (v.parse::<u32>(), w.parse::<u32>()) {
            (Ok(v), Ok(w)) => Route::Overlap(v, w),
            _ => Route::Bad("vertices must be numbers"),
        },
        _ => Route::NotFound,
    };
    (route, limit)
}

/// The `limit=K` query parameter; 1000 when absent or not a number.
pub(crate) fn parse_limit(query: &str) -> usize {
    for pair in query.split('&') {
        if let Some(v) = pair.strip_prefix("limit=") {
            if let Ok(k) = v.parse::<usize>() {
                return k;
            }
        }
    }
    1000
}

/// Declares [`Endpoint`], [`Endpoint::ALL`] and the endpoint table
/// from one list: each endpoint's label, the path a client requests
/// (none for the error endpoints), and the request counter, latency
/// histogram and rate-limit counter keys derived from the label.
macro_rules! endpoints {
    ($($endpoint:ident = $name:literal, $path:expr;)*) => {
        /// What a request is counted under: a row of the endpoint table.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum Endpoint {
            $($endpoint,)*
        }

        impl Endpoint {
            /// Every endpoint, in table (and exposition) order.
            pub(crate) const ALL: [Endpoint; 12] = [$(Endpoint::$endpoint,)*];
        }

        /// Per endpoint, in [`Endpoint`] order: the label, then the
        /// request counter, latency histogram and rate-limit counter keys.
        const ENDPOINT_KEYS: [[&str; 4]; 12] = [$([
            $name,
            concat!("http.", $name, ".requests"),
            concat!("http.", $name, ".ns"),
            concat!("http.", $name, ".rate_limited"),
        ],)*];

        /// Per endpoint, in [`Endpoint`] order: its path, with
        /// upper-case placeholders for the parameters.
        const ENDPOINT_PATHS: [Option<&str>; 12] = [$($path,)*];
    };
}

endpoints! {
    Health = "health", Some("/health");
    Ready = "ready", Some("/ready");
    Stats = "stats", Some("/stats");
    Get = "get", Some("/get/ID");
    Containing = "containing", Some("/containing/V");
    Size = "size", Some("/size/LO/HI");
    Max = "max", Some("/max");
    Overlap = "overlap", Some("/overlap/V/W");
    Metrics = "metrics", Some("/metrics");
    MetricsJson = "metrics_json", Some("/metrics-json");
    NotFound = "not_found", None;
    BadRequest = "bad_request", None;
}

/// The paths `gsb serve` and `gsb router` answer, space-separated in
/// table order, as both print them at start-up.
pub fn endpoint_paths() -> String {
    ENDPOINT_PATHS
        .into_iter()
        .flatten()
        .collect::<Vec<_>>()
        .join(" ")
}

impl Endpoint {
    /// The `endpoint` label, also the access log's endpoint name.
    pub(crate) fn name(self) -> &'static str {
        ENDPOINT_KEYS[self as usize][0]
    }

    /// The requests-answered counter.
    pub(crate) fn requests_key(self) -> &'static str {
        ENDPOINT_KEYS[self as usize][1]
    }

    /// The latency histogram (nanoseconds).
    pub(crate) fn latency_key(self) -> &'static str {
        ENDPOINT_KEYS[self as usize][2]
    }

    /// The answered-429 counter.
    pub(crate) fn rate_limited_key(self) -> &'static str {
        ENDPOINT_KEYS[self as usize][3]
    }
}

/// Endpoints exempt from the token buckets and from queue-full
/// shedding: liveness, readiness, and scrapes must keep answering
/// during overload — a router probing `/ready` must learn "still
/// serving, just busy" rather than a shed 503.
pub(crate) fn admission_exempt(endpoint: Endpoint) -> bool {
    matches!(
        endpoint,
        Endpoint::Health | Endpoint::Ready | Endpoint::Metrics | Endpoint::MetricsJson
    )
}

/// A typed answer to a query or error route.
#[derive(Debug, PartialEq)]
pub(crate) enum Answer {
    /// `/get/<id>`: the clique stored under `id`.
    Clique { id: u64, clique: Clique },
    /// `/max`: a maximum clique, empty for an empty index.
    Max(Clique),
    /// `/containing`, `/overlap` or `/size`.
    List(ListQuery, ListAnswer),
    /// A typed error: status and message.
    Error(u16, String),
}

impl Answer {
    /// The 404 of a clique id that names no live clique.
    pub(crate) fn no_clique(id: u64) -> Answer {
        Answer::Error(404, format!("no clique with id {id}"))
    }

    /// Status, body, `X-Gsb-Degraded` count (quarantined ids skipped
    /// plus shards missing) and content type.
    pub(crate) fn reply(&self) -> Reply {
        let json = CONTENT_TYPE_JSON;
        match self {
            Answer::Clique { id, clique } => (200, clique_body(Some(*id), clique), 0, json),
            Answer::Max(c) => (200, clique_body(None, c), 0, json),
            Answer::List(query, list) => {
                let degraded = list.degraded + list.missing_shards.len() as u64;
                (200, list.render(*query), degraded, json)
            }
            Answer::Error(status, message) => {
                (*status, format!("{{\"error\":{message:?}}}"), 0, json)
            }
        }
    }
}

/// A `/get` body (with the id) or a `/max` body (without).
fn clique_body(id: Option<u64>, clique: &[Vertex]) -> String {
    let mut body = String::with_capacity(72 + 11 * clique.len());
    body.push('{');
    if let Some(id) = id {
        let _ = write!(body, "\"id\":{id},");
    }
    let _ = write!(body, "\"size\":{},\"clique\":", clique.len());
    push_ints(&mut body, clique.iter().map(|&v| u64::from(v)));
    body.push('}');
    body
}

/// The `"clique"` of a `/get` body; `None` when the body does not parse
/// or a vertex is not a `u32`.
pub(crate) fn parse_clique(body: &str) -> Option<Clique> {
    let mut clique = Vec::new();
    vertices_of(json::parse(body).ok()?.get("clique")?, &mut clique)?;
    Some(clique)
}

/// Read a JSON array of vertices into `out`, replacing what it held;
/// `None` when `value` is not an array or a vertex is not a `u32`.
fn vertices_of(value: &JsonValue, out: &mut Vec<Vertex>) -> Option<()> {
    out.clear();
    for v in value.as_array()? {
        out.push(u32::try_from(v.as_u64()?).ok()?);
    }
    Some(())
}

/// Which list query a [`ListAnswer`] answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ListQuery {
    /// Cliques containing vertex v.
    Containing(u32),
    /// Cliques containing both v and w.
    Overlap(u32, u32),
    /// Cliques with size in `lo..=hi`.
    Size(u32, u32),
}

impl ListQuery {
    /// The query's path, as a shard is asked for it.
    pub(crate) fn path(self, limit: usize) -> String {
        match self {
            ListQuery::Containing(v) => format!("/containing/{v}?limit={limit}"),
            ListQuery::Overlap(v, w) => format!("/overlap/{v}/{w}?limit={limit}"),
            ListQuery::Size(lo, hi) => format!("/size/{lo}/{hi}?limit={limit}"),
        }
    }
}

/// A list answer: how many live cliques match, and the first `limit`
/// of them in id order. The default matched nothing.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct ListAnswer {
    /// Matching cliques in all.
    pub count: u64,
    /// Ids of the returned cliques, ascending (rendered by `/containing`
    /// and `/overlap`).
    pub ids: Vec<u64>,
    /// The first matching id (rendered by `/size`, as 0 when `None`);
    /// `None` when nothing matched.
    pub first_id: Option<u64>,
    /// The returned cliques, in id order.
    pub cliques: FlatCliques,
    /// Ids skipped because their store block is quarantined.
    pub degraded: u64,
    /// Shards that did not answer (a router's partial answer).
    pub missing_shards: Vec<usize>,
}

impl ListAnswer {
    /// Read back a list body a shard rendered; `None` when it does not
    /// parse.
    pub(crate) fn parse(body: &str) -> Option<ListAnswer> {
        let parsed = json::parse(body).ok()?;
        let count = parsed.u64_or_zero("count");
        let mut cliques = FlatCliques::default();
        let mut clique = Vec::new();
        for value in parsed.get("cliques")?.as_array()? {
            vertices_of(value, &mut clique)?;
            cliques.push(&clique);
        }
        Some(ListAnswer {
            count,
            ids: parsed.u64_array("ids"),
            // A shard that matched nothing renders `first_id` 0.
            first_id: parsed
                .get("first_id")
                .and_then(JsonValue::as_u64)
                .filter(|_| count > 0),
            cliques,
            degraded: parsed.u64_or_zero("degraded"),
            missing_shards: Vec::new(),
        })
    }

    /// Fold in the answer of the shard whose ids start at `id_lo`,
    /// shards in ascending order: counts and `degraded` add, ids are
    /// made global, cliques are appended and `first_id` keeps the
    /// minimum. [`ListAnswer::finish`] then sorts and cuts.
    pub(crate) fn absorb(&mut self, part: ListAnswer, id_lo: u64) {
        self.count += part.count;
        self.ids.extend(part.ids.iter().map(|id| id + id_lo));
        self.cliques.append(&part.cliques);
        self.degraded += part.degraded;
        if let Some(first) = part.first_id.map(|id| id + id_lo) {
            self.first_id = Some(self.first_id.map_or(first, |f| f.min(first)));
        }
    }

    /// The merged answer to `query`: ids sorted, ids and cliques cut at
    /// `limit`, and the shards that did not answer.
    pub(crate) fn finish(mut self, query: ListQuery, limit: usize, missing: Vec<usize>) -> Answer {
        self.ids.sort_unstable();
        self.ids.truncate(limit);
        self.cliques.truncate(limit);
        self.missing_shards = missing;
        Answer::List(query, self)
    }

    fn render(&self, query: ListQuery) -> String {
        // At least the largest body this answer can render, so the
        // buffer is allocated once: the fixed fields take at most 192
        // bytes, an id or shard at most 20 digits and a separator, a
        // vertex 10 and one, and a clique its brackets and a comma.
        let mut body = String::with_capacity(
            192 + 21 * (self.ids.len() + self.missing_shards.len())
                + 11 * self.cliques.vertex_count()
                + 3 * self.cliques.len(),
        );
        let _ = match query {
            ListQuery::Containing(v) => write!(body, "{{\"vertex\":{v},\"count\":{}", self.count),
            ListQuery::Overlap(v, w) => {
                write!(body, "{{\"v\":{v},\"w\":{w},\"count\":{}", self.count)
            }
            ListQuery::Size(lo, hi) => write!(
                body,
                "{{\"min\":{lo},\"max\":{hi},\"count\":{},\"first_id\":{}",
                self.count,
                self.first_id.unwrap_or(0)
            ),
        };
        if !matches!(query, ListQuery::Size(..)) {
            body.push_str(",\"ids\":");
            push_ints(&mut body, self.ids.iter().copied());
        }
        body.push_str(",\"cliques\":[");
        for (i, clique) in self.cliques.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            push_ints(&mut body, clique.iter().map(|&v| u64::from(v)));
        }
        body.push(']');
        // Both suffixes are absent from a complete answer, so a healthy
        // answer is byte-identical to one without degradation support.
        if self.degraded > 0 {
            let _ = write!(body, ",\"degraded\":{}", self.degraded);
        }
        body.push_str(&missing_field(&self.missing_shards));
        body.push('}');
        body
    }
}

/// The `,"missing_shards":[..]` suffix; empty when no shard is missing.
pub(crate) fn missing_field(missing: &[usize]) -> String {
    let mut field = String::new();
    if !missing.is_empty() {
        field.push_str(",\"missing_shards\":");
        push_ints(&mut field, missing.iter().map(|&shard| shard as u64));
    }
    field
}

/// Append `[a,b,c]`, compact: the one writer of every integer array in
/// a body.
fn push_ints(body: &mut String, items: impl IntoIterator<Item = u64>) {
    body.push('[');
    for (i, n) in items.into_iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        push_int(body, n);
    }
    body.push(']');
}

/// Append the decimal digits of `n`, exactly as `Display` prints them.
fn push_int(body: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    body.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_parsing() {
        assert_eq!(parse_limit(""), 1000);
        assert_eq!(parse_limit("limit=5"), 5);
        assert_eq!(parse_limit("a=1&limit=7"), 7);
        assert_eq!(parse_limit("limit=x"), 1000);
    }

    #[test]
    fn route_parsing_is_total() {
        assert!(matches!(
            parse_route("GET /health HTTP/1.1").0,
            Route::Health
        ));
        assert!(matches!(parse_route("GET / HTTP/1.1").0, Route::Health));
        assert!(matches!(
            parse_route("GET /containing/7 HTTP/1.1").0,
            Route::Containing(7)
        ));
        assert!(matches!(
            parse_route("GET /size/3/5 HTTP/1.1").0,
            Route::Size(3, 5)
        ));
        assert!(matches!(
            parse_route("GET /size/5/3 HTTP/1.1").0,
            Route::Bad(_)
        ));
        assert!(matches!(
            parse_route("POST /health HTTP/1.1").0,
            Route::MethodNotAllowed
        ));
        assert!(matches!(parse_route("").0, Route::MethodNotAllowed));
        assert!(matches!(
            parse_route("GET /nope HTTP/1.1").0,
            Route::NotFound
        ));
        let long = format!("GET /{} HTTP/1.1", "a".repeat(4000));
        assert!(matches!(parse_route(&long).0, Route::Bad(_)));
        assert_eq!(parse_route("GET /max?limit=3 HTTP/1.1").1, 3);
    }

    #[test]
    fn metrics_routes_parse_and_are_admission_exempt() {
        assert!(matches!(
            parse_route("GET /metrics HTTP/1.1").0,
            Route::Metrics
        ));
        assert!(matches!(
            parse_route("GET /metrics-json HTTP/1.1").0,
            Route::MetricsJson
        ));
        assert!(admission_exempt(Endpoint::Health));
        assert!(admission_exempt(Endpoint::Ready));
        assert!(admission_exempt(Endpoint::Metrics));
        assert!(admission_exempt(Endpoint::MetricsJson));
        assert!(!admission_exempt(Endpoint::Containing));
        assert!(!admission_exempt(Endpoint::Stats));
        assert!(!admission_exempt(Endpoint::Get));
    }

    #[test]
    fn ready_and_get_routes_parse() {
        assert!(matches!(parse_route("GET /ready HTTP/1.1").0, Route::Ready));
        assert!(matches!(
            parse_route("GET /get/42 HTTP/1.1").0,
            Route::Get(42)
        ));
        assert!(matches!(
            parse_route("GET /get/x HTTP/1.1").0,
            Route::Bad(_)
        ));
        assert_eq!(Route::Ready.endpoint().name(), "ready");
        assert_eq!(Route::Get(0).endpoint().name(), "get");
    }

    #[test]
    fn endpoint_table_rows_follow_the_enum() {
        for (i, ep) in Endpoint::ALL.into_iter().enumerate() {
            assert_eq!(ep as usize, i);
            let name = ep.name();
            assert_eq!(ep.requests_key(), format!("http.{name}.requests"));
            assert_eq!(ep.latency_key(), format!("http.{name}.ns"));
            assert_eq!(ep.rate_limited_key(), format!("http.{name}.rate_limited"));
        }
        assert_eq!(Endpoint::MetricsJson.name(), "metrics_json");
        assert_eq!(Route::Bad("x").endpoint(), Endpoint::BadRequest);
        assert_eq!(Route::MethodNotAllowed.endpoint(), Endpoint::BadRequest);
    }

    #[test]
    fn every_printed_path_routes_to_its_own_endpoint() {
        let printed = endpoint_paths();
        assert_eq!(printed.split(' ').count(), 10, "{printed}");
        for path in printed.split(' ') {
            let filled: Vec<String> = path
                .split('/')
                .map(|segment| match segment {
                    "ID" => "7".into(),
                    "V" => "3".into(),
                    "W" => "4".into(),
                    "LO" => "2".into(),
                    "HI" => "5".into(),
                    other => {
                        assert!(!other.chars().any(|c| c.is_ascii_uppercase()), "{path}");
                        other.into()
                    }
                })
                .collect();
            let endpoint = parse_route(&format!("GET {} HTTP/1.1", filled.join("/")))
                .0
                .endpoint();
            assert_eq!(ENDPOINT_PATHS[endpoint as usize], Some(path), "{path}");
        }
    }

    #[test]
    fn gather_translates_ids_and_accumulates() {
        let mut g = ListAnswer::default();
        g.absorb(
            ListAnswer::parse(
                "{\"vertex\":3,\"count\":2,\"ids\":[0,4],\"cliques\":[[1,2,3],[3,4]]}",
            )
            .expect("parse"),
            100,
        );
        g.absorb(
            ListAnswer::parse(
                "{\"vertex\":3,\"count\":1,\"ids\":[7],\"cliques\":[[3,9]],\"degraded\":2}",
            )
            .expect("parse"),
            200,
        );
        assert_eq!(g.count, 3);
        assert_eq!(g.ids, vec![100, 104, 207]);
        let cliques: [&[Vertex]; 3] = [&[1, 2, 3], &[3, 4], &[3, 9]];
        assert!(g.cliques.iter().eq(cliques));
        assert_eq!(g.degraded, 2);
        assert!(ListAnswer::parse("not json").is_none());
    }

    #[test]
    fn merged_list_answers_render_like_one_server() {
        // One server over ids 0..6: sizes 3,3,4 | 4,5,5.
        let q = ListQuery::Size(4, 5);
        let shard0 = "{\"min\":4,\"max\":5,\"count\":1,\"first_id\":2,\"cliques\":[[0,1,2,3]]}";
        let shard1 =
            "{\"min\":4,\"max\":5,\"count\":3,\"first_id\":0,\"cliques\":[[1,2,3,4],[0,1,2,3,4]]}";
        let mut merged = ListAnswer::default();
        merged.absorb(ListAnswer::parse(shard0).unwrap(), 0);
        merged.absorb(ListAnswer::parse(shard1).unwrap(), 3);
        let (status, body, degraded, _) = merged.finish(q, 2, Vec::new()).reply();
        assert_eq!((status, degraded), (200, 0));
        assert_eq!(
            body,
            "{\"min\":4,\"max\":5,\"count\":4,\"first_id\":2,\"cliques\":[[0,1,2,3],[1,2,3,4]]}"
        );

        // A shard whose sizes straddle the range but match nothing
        // renders first_id 0; that 0 is not an id.
        let q = ListQuery::Size(4, 4);
        let mut merged = ListAnswer::default();
        let gap = "{\"min\":4,\"max\":4,\"count\":0,\"first_id\":0,\"cliques\":[]}";
        merged.absorb(ListAnswer::parse(gap).unwrap(), 40);
        let (_, body, _, _) = merged.finish(q, 1000, Vec::new()).reply();
        assert_eq!(body, gap);
        assert_eq!(
            ListAnswer::default().finish(q, 10, Vec::new()).reply().1,
            gap
        );

        // Ids sort before the cut; a missing shard is named.
        let q = ListQuery::Overlap(1, 2);
        let mut merged = ListAnswer::default();
        let part = "{\"v\":1,\"w\":2,\"count\":2,\"ids\":[0,1],\"cliques\":[[1,2],[1,2,7]],\"degraded\":1}";
        merged.absorb(ListAnswer::parse(part).unwrap(), 10);
        let (_, body, degraded, _) = merged.finish(q, 1, vec![0]).reply();
        assert_eq!(degraded, 2);
        assert_eq!(
            body,
            "{\"v\":1,\"w\":2,\"count\":2,\"ids\":[10],\"cliques\":[[1,2]],\"degraded\":1,\"missing_shards\":[0]}"
        );
    }

    #[test]
    fn the_integer_writer_prints_what_display_prints() {
        for n in [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX] {
            let mut body = String::from("x");
            push_int(&mut body, n);
            assert_eq!(body, format!("x{n}"));
        }
        let mut body = String::new();
        push_ints(&mut body, []);
        push_ints(&mut body, [7]);
        push_ints(&mut body, [0, 10, u64::MAX]);
        assert_eq!(body, "[][7][0,10,18446744073709551615]");
    }

    #[test]
    fn a_merged_list_cut_at_limit_renders_both_suffixes() {
        // Three cliques over two shards, cut to two: the cut lands on
        // the second shard's first clique, so both the vertex buffer
        // and the ends are cut mid-list.
        let q = ListQuery::Containing(4);
        let shard0 = "{\"vertex\":4,\"count\":2,\"ids\":[1,3],\"cliques\":[[0,4,1000000],[4,4294967295]],\"degraded\":1}";
        let shard1 =
            "{\"vertex\":4,\"count\":2,\"ids\":[0,2],\"cliques\":[[2,4,6,8],[4,5]],\"degraded\":2}";
        let mut merged = ListAnswer::default();
        merged.absorb(ListAnswer::parse(shard0).unwrap(), 10);
        merged.absorb(ListAnswer::parse(shard1).unwrap(), 20);
        let answer = merged.finish(q, 3, vec![2, 17]);
        let Answer::List(_, ref list) = answer else {
            panic!("a list answer");
        };
        assert_eq!(list.cliques.len(), 3);
        assert_eq!(list.cliques.vertex_count(), 9);
        let (status, body, degraded, _) = answer.reply();
        assert_eq!((status, degraded), (200, 5));
        assert_eq!(
            body,
            "{\"vertex\":4,\"count\":4,\"ids\":[11,13,20],\"cliques\":[[0,4,1000000],[4,4294967295],[2,4,6,8]],\"degraded\":3,\"missing_shards\":[2,17]}"
        );
    }

    #[test]
    fn answers_render_the_server_bodies() {
        let clique = Answer::Clique {
            id: 7,
            clique: vec![1, 4, 9],
        };
        assert_eq!(clique.reply().1, "{\"id\":7,\"size\":3,\"clique\":[1,4,9]}");
        assert_eq!(Answer::Max(vec![]).reply().1, "{\"size\":0,\"clique\":[]}");
        assert_eq!(
            Answer::no_clique(5).reply(),
            (
                404,
                "{\"error\":\"no clique with id 5\"}".into(),
                0,
                CONTENT_TYPE_JSON
            )
        );
        let (status, body, _, _) = Route::Bad("vertex must be a number").error().reply();
        assert_eq!(
            (status, body.as_str()),
            (400, "{\"error\":\"vertex must be a number\"}")
        );
        assert_eq!(Route::MethodNotAllowed.error().reply().0, 405);
        assert_eq!(
            Route::NotFound.error().reply().1,
            "{\"error\":\"no such endpoint\"}"
        );
        assert_eq!(
            parse_clique("{\"size\":2,\"clique\":[3,8]}"),
            Some(vec![3, 8])
        );
        assert_eq!(parse_clique("{\"clique\":[3,4294967296]}"), None);
    }
}
