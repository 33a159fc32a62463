//! Wire-protocol message types (the code half of `docs/PROTOCOL.md`).
//!
//! Every message is one newline-delimited JSON frame
//! (`nlidb_json::frame`). This module owns the typed request/response
//! vocabulary and its canonical encoding; the spec document shows
//! example frames that a conformance test
//! (`crates/serve/tests/protocol_conformance.rs`) round-trips through
//! the impls here, so document and code cannot drift apart.
//!
//! ## Canonical encoding
//!
//! [`ToJson`] impls emit fields in a fixed order (`v`, `id`, `op`/`ok`,
//! then op-specific fields) and the compact serializer preserves that
//! order, so a given message value has exactly one wire form. Decoding
//! is field-order independent and tolerates unknown extra fields — the
//! protocol's forward-compatibility rule (`docs/PROTOCOL.md` §7).

use nlidb_json::{FromJson, Json, JsonError, ToJson};
use nlidb_sqlir::Query;
use nlidb_storage::Table;

/// The protocol version this build speaks. Requests may omit `v`
/// (treated as version 1); a request carrying a higher version is
/// rejected with [`ErrorCode::UnsupportedVersion`].
pub const PROTOCOL_VERSION: u64 = 1;

/// Renders a table fingerprint in its wire form: exactly 16 lowercase
/// hex digits, zero-padded. (JSON integers are signed 64-bit in this
/// stack; fingerprints are full-range `u64`, so they travel as strings.)
pub fn fingerprint_to_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parses a wire fingerprint. Accepts 1–16 hex digits, any case, and
/// nothing else (no sign); canonical form is 16 lowercase digits.
pub fn fingerprint_from_hex(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Structured error codes (`docs/PROTOCOL.md` §6). The wire form is the
/// snake_case string from [`ErrorCode::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ErrorCode {
    /// The frame was not a single well-formed JSON value.
    BadFrame,
    /// The frame was JSON but not a valid request (missing/ill-typed
    /// fields, unknown fingerprint encoding, empty batch, …).
    BadRequest,
    /// The request's `v` exceeds [`PROTOCOL_VERSION`].
    UnsupportedVersion,
    /// The `op` string names no known operation.
    UnknownOp,
    /// The fingerprint is not registered (for this tenant).
    UnknownTable,
    /// Admission control shed the request (per-tenant or global queue
    /// full). The request had no effect; retry later.
    Overloaded,
    /// The frame exceeded `nlidb_json::MAX_FRAME_BYTES`.
    FrameTooLong,
    /// `swap_checkpoint` could not load the named checkpoint; the
    /// previous model stays active.
    CheckpointFailed,
    /// The request was valid but its response would exceed
    /// `nlidb_json::MAX_FRAME_BYTES` (frames are bounded in both
    /// directions); narrow the request.
    ResponseTooLarge,
    /// The server is shutting down; the request was not processed.
    ShuttingDown,
    /// An engine invariant was violated while answering (a bug, not a
    /// bad request): the request fails with this code instead of
    /// panicking the engine thread, and other requests are unaffected.
    Internal,
}

impl ErrorCode {
    /// Every code, in wire-name order (the spec's §6 table is generated
    /// from the same list by hand; the conformance test cross-checks).
    pub const ALL: [ErrorCode; 11] = [
        ErrorCode::BadFrame,
        ErrorCode::BadRequest,
        ErrorCode::CheckpointFailed,
        ErrorCode::FrameTooLong,
        ErrorCode::Internal,
        ErrorCode::Overloaded,
        ErrorCode::ResponseTooLarge,
        ErrorCode::ShuttingDown,
        ErrorCode::UnknownOp,
        ErrorCode::UnknownTable,
        ErrorCode::UnsupportedVersion,
    ];

    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownTable => "unknown_table",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::FrameTooLong => "frame_too_long",
            ErrorCode::CheckpointFailed => "checkpoint_failed",
            ErrorCode::ResponseTooLarge => "response_too_large",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire name.
    pub fn from_str(s: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

/// A structured protocol error: a machine-readable code plus a
/// human-readable message. Messages are deterministic functions of the
/// offending request and the server configuration — never of timing,
/// load, or other connections.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// The error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError { code, message: message.into() }
    }
}

impl ToJson for WireError {
    fn to_json(&self) -> Json {
        Json::obj([
            ("code", Json::Str(self.code.as_str().to_string())),
            ("message", Json::Str(self.message.clone())),
        ])
    }
}

impl FromJson for WireError {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let code: String = j.req("code")?;
        let code = ErrorCode::from_str(&code)
            .ok_or_else(|| JsonError::new(format!("unknown error code '{code}'")))?;
        Ok(WireError { code, message: j.req("message")? })
    }
}

/// One question against one registered table (the unit of `ask` and the
/// element of `batch`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AskItem {
    /// [`Table::fingerprint`] of the registered target table.
    pub fingerprint: u64,
    /// The tokenized question.
    pub question: Vec<String>,
    /// Opt-in execution-guided decoding (`docs/PROTOCOL.md` §4.2):
    /// candidates are executed against the table and repaired
    /// deterministically. Defaults to `false` (the unguided path); the
    /// canonical encoding omits the field when false.
    pub guided: bool,
}

impl AskItem {
    fn to_json_fields(&self) -> Vec<(String, Json)> {
        let mut fields = vec![
            ("fingerprint".into(), Json::Str(fingerprint_to_hex(self.fingerprint))),
            ("question".into(), self.question.to_json()),
        ];
        // Canonical encoding: `guided` appears exactly when true, so
        // unguided requests are byte-identical to the pre-guidance wire
        // format.
        if self.guided {
            fields.push(("guided".into(), Json::Bool(true)));
        }
        fields
    }

    fn from_json_fields(j: &Json) -> Result<AskItem, JsonError> {
        let fp: String = j.req("fingerprint")?;
        let fingerprint = fingerprint_from_hex(&fp)
            .ok_or_else(|| JsonError::new(format!("invalid fingerprint '{fp}'")))?;
        // `question` is canonically an array of tokens; a plain string is
        // accepted and split on whitespace as a client convenience.
        let question = match j.get("question") {
            Some(Json::Str(s)) => s.split_whitespace().map(str::to_string).collect(),
            _ => j.req::<Vec<String>>("question")?,
        };
        let guided = j.opt::<bool>("guided")?.unwrap_or(false);
        Ok(AskItem { fingerprint, question, guided })
    }
}

impl ToJson for AskItem {
    fn to_json(&self) -> Json {
        Json::Obj(self.to_json_fields())
    }
}

impl FromJson for AskItem {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        AskItem::from_json_fields(j)
    }
}

/// The operations a client may request (`docs/PROTOCOL.md` §4).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Register a table under the requesting tenant; idempotent.
    RegisterTable {
        /// The full table (name, schema, column-major cells).
        table: Table,
    },
    /// Answer one question against a registered table.
    Ask(AskItem),
    /// Answer several questions in one request (the client-side
    /// micro-batch; items may target different tables).
    Batch {
        /// The questions, answered in order.
        items: Vec<AskItem>,
    },
    /// Hot-swap the model from a checkpoint directory.
    SwapCheckpoint {
        /// Path to a directory written by `Nlidb::save`.
        path: String,
    },
    /// Report catalog, admission, and cache statistics.
    Stats,
    /// Gracefully stop the server.
    Shutdown,
}

impl Op {
    /// The wire `op` string.
    pub fn name(&self) -> &'static str {
        match self {
            Op::RegisterTable { .. } => "register_table",
            Op::Ask(_) => "ask",
            Op::Batch { .. } => "batch",
            Op::SwapCheckpoint { .. } => "swap_checkpoint",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }
}

/// One client request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation value, echoed verbatim in the
    /// response. Any JSON scalar; `null` when omitted.
    pub id: Json,
    /// The requesting tenant (admission-control and catalog namespace).
    /// Empty when omitted — the anonymous tenant.
    pub tenant: String,
    /// The operation.
    pub op: Op,
}

impl Request {
    /// Builds a request with a numeric id.
    pub fn new(id: i64, tenant: impl Into<String>, op: Op) -> Request {
        Request { id: Json::Int(id), tenant: tenant.into(), op }
    }

    /// Decodes a parsed frame into a request, mapping every failure to
    /// the structured error the server must answer with.
    pub fn decode(j: &Json) -> Result<Request, WireError> {
        if j.as_obj().is_none() {
            return Err(WireError::new(ErrorCode::BadRequest, "request frame must be an object"));
        }
        let v = j
            .opt::<u64>("v")
            .map_err(|e| WireError::new(ErrorCode::BadRequest, e.message()))?
            .unwrap_or(1);
        if v > PROTOCOL_VERSION {
            return Err(WireError::new(
                ErrorCode::UnsupportedVersion,
                format!("protocol version {v} > supported {PROTOCOL_VERSION}"),
            ));
        }
        let id = j.get("id").cloned().unwrap_or(Json::Null);
        let tenant = j
            .opt::<String>("tenant")
            .map_err(|e| WireError::new(ErrorCode::BadRequest, e.message()))?
            .unwrap_or_default();
        let op_name = j
            .req::<String>("op")
            .map_err(|e| WireError::new(ErrorCode::BadRequest, e.message()))?;
        let bad = |e: JsonError| WireError::new(ErrorCode::BadRequest, e.message());
        let op = match op_name.as_str() {
            "register_table" => Op::RegisterTable { table: j.req("table").map_err(bad)? },
            "ask" => Op::Ask(AskItem::from_json_fields(j).map_err(bad)?),
            "batch" => {
                let items: Vec<AskItem> = j.req("items").map_err(bad)?;
                if items.is_empty() {
                    return Err(WireError::new(ErrorCode::BadRequest, "batch with no items"));
                }
                Op::Batch { items }
            }
            "swap_checkpoint" => Op::SwapCheckpoint { path: j.req("path").map_err(bad)? },
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            other => {
                return Err(WireError::new(
                    ErrorCode::UnknownOp,
                    format!("unknown op '{other}'"),
                ))
            }
        };
        Ok(Request { id, tenant, op })
    }
}

impl ToJson for Request {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("v".into(), Json::Int(PROTOCOL_VERSION as i64)),
            ("id".into(), self.id.clone()),
            ("op".into(), Json::Str(self.op.name().to_string())),
            ("tenant".into(), Json::Str(self.tenant.clone())),
        ];
        match &self.op {
            Op::RegisterTable { table } => fields.push(("table".into(), table.to_json())),
            Op::Ask(item) => fields.extend(item.to_json_fields()),
            Op::Batch { items } => fields.push(("items".into(), items.to_json())),
            Op::SwapCheckpoint { path } => fields.push(("path".into(), path.to_json())),
            Op::Stats | Op::Shutdown => {}
        }
        Json::Obj(fields)
    }
}

impl FromJson for Request {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Request::decode(j).map_err(|e| JsonError::new(format!("{}: {}", e.code.as_str(), e.message)))
    }
}

/// A single answered question: the predicted query (structured) and its
/// SQL rendering against the target table's column names. Both are
/// `null` when the pipeline produced no prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The predicted query, if any.
    pub query: Option<Query>,
    /// `query` rendered as SQL text.
    pub sql: Option<String>,
}

impl ToJson for Answer {
    fn to_json(&self) -> Json {
        Json::obj([
            ("sql", match &self.sql {
                Some(s) => Json::Str(s.clone()),
                None => Json::Null,
            }),
            ("query", match &self.query {
                Some(q) => q.to_json(),
                None => Json::Null,
            }),
        ])
    }
}

impl FromJson for Answer {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Answer { query: j.opt("query")?, sql: j.opt("sql")? })
    }
}

/// One element of a `batch` response: an answer, or a per-item error
/// (e.g. one unknown fingerprint does not fail the other items).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// The item was answered.
    Answer(Answer),
    /// The item failed.
    Failed(WireError),
}

impl ToJson for BatchItem {
    fn to_json(&self) -> Json {
        match self {
            BatchItem::Answer(a) => a.to_json(),
            BatchItem::Failed(e) => Json::obj([("error", e.to_json())]),
        }
    }
}

impl FromJson for BatchItem {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.get("error") {
            Some(e) => Ok(BatchItem::Failed(WireError::from_json(e)?)),
            None => Ok(BatchItem::Answer(Answer::from_json(j)?)),
        }
    }
}

/// Cache accounting as it travels on the wire (mirrors
/// `nlidb_core::CacheTableStats`, re-declared here because the JSON
/// traits cannot be implemented for a foreign type in this crate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Insertions.
    pub insertions: u64,
    /// Evictions.
    pub evictions: u64,
}

impl ToJson for CacheCounts {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hits", self.hits.to_json()),
            ("misses", self.misses.to_json()),
            ("insertions", self.insertions.to_json()),
            ("evictions", self.evictions.to_json()),
        ])
    }
}

impl FromJson for CacheCounts {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(CacheCounts {
            hits: j.req("hits")?,
            misses: j.req("misses")?,
            insertions: j.req("insertions")?,
            evictions: j.req("evictions")?,
        })
    }
}

/// Per-tenant admission statistics (one row of `stats`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Questions admitted (lifetime).
    pub admitted: u64,
    /// Questions shed by admission control (lifetime).
    pub shed: u64,
    /// Questions currently queued or executing.
    pub in_flight: u64,
}

impl ToJson for TenantStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tenant", self.tenant.to_json()),
            ("admitted", self.admitted.to_json()),
            ("shed", self.shed.to_json()),
            ("in_flight", self.in_flight.to_json()),
        ])
    }
}

impl FromJson for TenantStats {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(TenantStats {
            tenant: j.req("tenant")?,
            admitted: j.req("admitted")?,
            shed: j.req("shed")?,
            in_flight: j.req("in_flight")?,
        })
    }
}

/// Per-registered-table statistics (one row of `stats`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableStats {
    /// The table's fingerprint.
    pub fingerprint: u64,
    /// Table name as registered.
    pub name: String,
    /// Tenants that registered it, sorted.
    pub tenants: Vec<String>,
    /// Row count.
    pub rows: u64,
    /// Per-fingerprint prediction-cache accounting — the per-tenant
    /// attribution the engine-global counters cannot provide.
    pub cache: CacheCounts,
}

impl ToJson for TableStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("fingerprint", Json::Str(fingerprint_to_hex(self.fingerprint))),
            ("name", self.name.to_json()),
            ("tenants", self.tenants.to_json()),
            ("rows", self.rows.to_json()),
            ("cache", self.cache.to_json()),
        ])
    }
}

impl FromJson for TableStats {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let fp: String = j.req("fingerprint")?;
        Ok(TableStats {
            fingerprint: fingerprint_from_hex(&fp)
                .ok_or_else(|| JsonError::new(format!("invalid fingerprint '{fp}'")))?,
            name: j.req("name")?,
            tenants: j.req("tenants")?,
            rows: j.req("rows")?,
            cache: j.req("cache")?,
        })
    }
}

/// The `stats` reply body. Counts are lifetime totals for the running
/// server process; they are diagnostics, explicitly *outside* the
/// byte-determinism contract (`docs/PROTOCOL.md` §5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests handled (all ops, errors included).
    pub requests: u64,
    /// Questions answered through the engine or cache.
    pub questions: u64,
    /// Micro-batches dispatched to the inference engine.
    pub batches: u64,
    /// Checkpoint swaps performed.
    pub swaps: u64,
    /// Per-tenant admission rows, sorted by tenant.
    pub tenants: Vec<TenantStats>,
    /// Per-table rows, sorted by fingerprint.
    pub tables: Vec<TableStats>,
    /// Engine-global cache accounting (sums of the per-table rows for
    /// fingerprints still attributable, plus any pre-registration
    /// traffic).
    pub cache: CacheCounts,
    /// Entries currently cached.
    pub cache_len: u64,
}

impl ToJson for ServerStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("requests", self.requests.to_json()),
            ("questions", self.questions.to_json()),
            ("batches", self.batches.to_json()),
            ("swaps", self.swaps.to_json()),
            ("tenants", self.tenants.to_json()),
            ("tables", self.tables.to_json()),
            ("cache", self.cache.to_json()),
            ("cache_len", self.cache_len.to_json()),
        ])
    }
}

impl FromJson for ServerStats {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(ServerStats {
            requests: j.req("requests")?,
            questions: j.req("questions")?,
            batches: j.req("batches")?,
            swaps: j.req("swaps")?,
            tenants: j.req("tenants")?,
            tables: j.req("tables")?,
            cache: j.req("cache")?,
            cache_len: j.req("cache_len")?,
        })
    }
}

/// Successful reply bodies, one per operation (`docs/PROTOCOL.md` §4).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `register_table` succeeded (or the table was already registered).
    Registered {
        /// The table's fingerprint — the handle `ask`/`batch` use.
        fingerprint: u64,
    },
    /// `ask` succeeded.
    Answer(Answer),
    /// `batch` succeeded (individual items may still carry errors).
    Batch {
        /// Item results, in request order.
        results: Vec<BatchItem>,
    },
    /// `swap_checkpoint` succeeded; the new model serves every
    /// subsequently dequeued request.
    Swapped {
        /// The checkpoint path that was loaded.
        checkpoint: String,
    },
    /// `stats` body.
    Stats(ServerStats),
    /// `shutdown` acknowledged; the server stops accepting connections.
    Bye,
}

impl Reply {
    /// The wire `type` string.
    pub fn type_name(&self) -> &'static str {
        match self {
            Reply::Registered { .. } => "registered",
            Reply::Answer(_) => "answer",
            Reply::Batch { .. } => "batch",
            Reply::Swapped { .. } => "swapped",
            Reply::Stats(_) => "stats",
            Reply::Bye => "bye",
        }
    }
}

/// One server response frame: the echoed request id plus either a typed
/// reply or a structured error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's `id`, echoed verbatim (`null` for frames whose id
    /// could not be parsed).
    pub id: Json,
    /// The outcome.
    pub result: Result<Reply, WireError>,
}

impl Response {
    /// A success response.
    pub fn ok(id: Json, reply: Reply) -> Response {
        Response { id, result: Ok(reply) }
    }

    /// An error response.
    pub fn err(id: Json, error: WireError) -> Response {
        Response { id, result: Err(error) }
    }
}

impl ToJson for Response {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("v".into(), Json::Int(PROTOCOL_VERSION as i64)),
            ("id".into(), self.id.clone()),
        ];
        match &self.result {
            Ok(reply) => {
                fields.push(("ok".into(), Json::Bool(true)));
                fields.push(("type".into(), Json::Str(reply.type_name().to_string())));
                match reply {
                    Reply::Registered { fingerprint } => fields.push((
                        "fingerprint".into(),
                        Json::Str(fingerprint_to_hex(*fingerprint)),
                    )),
                    Reply::Answer(a) => {
                        if let Json::Obj(pairs) = a.to_json() {
                            fields.extend(pairs);
                        }
                    }
                    Reply::Batch { results } => {
                        fields.push(("results".into(), results.to_json()))
                    }
                    Reply::Swapped { checkpoint } => {
                        fields.push(("checkpoint".into(), checkpoint.to_json()))
                    }
                    Reply::Stats(s) => fields.push(("stats".into(), s.to_json())),
                    Reply::Bye => {}
                }
            }
            Err(e) => {
                fields.push(("ok".into(), Json::Bool(false)));
                fields.push(("error".into(), e.to_json()));
            }
        }
        Json::Obj(fields)
    }
}

impl FromJson for Response {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let id = j.get("id").cloned().unwrap_or(Json::Null);
        let ok: bool = j.req("ok")?;
        if !ok {
            return Ok(Response { id, result: Err(j.req("error")?) });
        }
        let ty: String = j.req("type")?;
        let reply = match ty.as_str() {
            "registered" => {
                let fp: String = j.req("fingerprint")?;
                Reply::Registered {
                    fingerprint: fingerprint_from_hex(&fp)
                        .ok_or_else(|| JsonError::new(format!("invalid fingerprint '{fp}'")))?,
                }
            }
            "answer" => Reply::Answer(Answer::from_json(j)?),
            "batch" => Reply::Batch { results: j.req("results")? },
            "swapped" => Reply::Swapped { checkpoint: j.req("checkpoint")? },
            "stats" => Reply::Stats(j.req("stats")?),
            "bye" => Reply::Bye,
            other => return Err(JsonError::new(format!("unknown response type '{other}'"))),
        };
        Ok(Response { id, result: Ok(reply) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_sqlir::{CmpOp, Literal};
    use nlidb_storage::{Column, DataType, Schema, Value};

    fn table() -> Table {
        let mut t = Table::new(
            "films",
            Schema::new(vec![
                Column::new("Film Name", DataType::Text),
                Column::new("Year", DataType::Int),
            ]),
        );
        t.push_row(vec![Value::Text("27 Stolen Kisses".into()), Value::Int(2000)]);
        t
    }

    fn roundtrip_request(r: &Request) {
        let j = r.to_json();
        let parsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(&Request::from_json(&parsed).unwrap(), r);
    }

    fn roundtrip_response(r: &Response) {
        let j = r.to_json();
        let parsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(&Response::from_json(&parsed).unwrap(), r);
    }

    #[test]
    fn fingerprint_hex_roundtrip_and_canonical_form() {
        for fp in [0u64, 1, 0xdead_beef, u64::MAX] {
            let hex = fingerprint_to_hex(fp);
            assert_eq!(hex.len(), 16);
            assert_eq!(fingerprint_from_hex(&hex), Some(fp));
        }
        assert_eq!(fingerprint_from_hex("FF"), Some(255), "short and uppercase tolerated");
        assert_eq!(fingerprint_from_hex(""), None);
        assert_eq!(fingerprint_from_hex("00000000000000000"), None, "17 digits");
        assert_eq!(fingerprint_from_hex("xyz"), None);
        assert_eq!(fingerprint_from_hex("+ff"), None, "a sign is not a hex digit");
    }

    #[test]
    fn every_op_roundtrips() {
        let item = AskItem { fingerprint: 7, question: vec!["which".into(), "year".into()], guided: false };
        for op in [
            Op::RegisterTable { table: table() },
            Op::Ask(item.clone()),
            Op::Batch { items: vec![item.clone(), item] },
            Op::SwapCheckpoint { path: "ckpt/v2".into() },
            Op::Stats,
            Op::Shutdown,
        ] {
            roundtrip_request(&Request::new(3, "acme", op));
        }
    }

    #[test]
    fn guided_flag_roundtrips_and_is_omitted_when_false() {
        let unguided =
            AskItem { fingerprint: 7, question: vec!["which".into(), "year".into()], guided: false };
        let guided = AskItem { guided: true, ..unguided.clone() };
        roundtrip_request(&Request::new(3, "acme", Op::Ask(guided.clone())));
        roundtrip_request(&Request::new(4, "acme", Op::Batch { items: vec![guided.clone(), unguided.clone()] }));
        // Canonical form: `guided` appears exactly when true, so the
        // unguided wire bytes predate the flag unchanged.
        let off = Request::new(3, "acme", Op::Ask(unguided)).to_json().to_string();
        let on = Request::new(3, "acme", Op::Ask(guided)).to_json().to_string();
        assert!(!off.contains("guided"), "false is omitted: {off}");
        assert!(on.ends_with(",\"guided\":true}"), "true trails the item fields: {on}");
        // Decoding defaults to unguided when the field is absent.
        let parsed = Json::parse(&off).unwrap();
        match Request::from_json(&parsed).unwrap().op {
            Op::Ask(item) => assert!(!item.guided),
            other => panic!("expected ask, got {}", other.name()),
        }
    }

    #[test]
    fn every_reply_roundtrips() {
        let ans = Answer {
            query: Some(
                Query::select(0).and_where(1, CmpOp::Eq, Literal::Number(2000.0)),
            ),
            sql: Some("SELECT Film Name WHERE Year = 2000".into()),
        };
        for reply in [
            Reply::Registered { fingerprint: u64::MAX },
            Reply::Answer(ans.clone()),
            Reply::Answer(Answer { query: None, sql: None }),
            Reply::Batch {
                results: vec![
                    BatchItem::Answer(ans),
                    BatchItem::Failed(WireError::new(ErrorCode::UnknownTable, "no such table")),
                ],
            },
            Reply::Swapped { checkpoint: "ckpt/v2".into() },
            Reply::Stats(ServerStats {
                requests: 4,
                questions: 2,
                batches: 1,
                swaps: 0,
                tenants: vec![TenantStats {
                    tenant: "acme".into(),
                    admitted: 2,
                    shed: 1,
                    in_flight: 0,
                }],
                tables: vec![TableStats {
                    fingerprint: 9,
                    name: "films".into(),
                    tenants: vec!["acme".into()],
                    rows: 1,
                    cache: CacheCounts { hits: 1, misses: 1, insertions: 1, evictions: 0 },
                }],
                cache: CacheCounts { hits: 1, misses: 1, insertions: 1, evictions: 0 },
                cache_len: 1,
            }),
            Reply::Bye,
        ] {
            roundtrip_response(&Response::ok(Json::Int(1), reply));
        }
        roundtrip_response(&Response::err(
            Json::Null,
            WireError::new(ErrorCode::Overloaded, "tenant queue full"),
        ));
    }

    #[test]
    fn decode_maps_failures_to_documented_codes() {
        let code = |src: &str| {
            Request::decode(&Json::parse(src).unwrap()).unwrap_err().code
        };
        assert_eq!(code("[1,2]"), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"id":1}"#), ErrorCode::BadRequest, "missing op");
        assert_eq!(code(r#"{"op":"dance"}"#), ErrorCode::UnknownOp);
        assert_eq!(code(r#"{"v":99,"op":"stats"}"#), ErrorCode::UnsupportedVersion);
        assert_eq!(code(r#"{"op":"ask","fingerprint":"zz","question":[]}"#), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"op":"batch","items":[]}"#), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"op":"ask","question":["hi"]}"#), ErrorCode::BadRequest);
    }

    #[test]
    fn version_defaults_to_one_and_unknown_fields_are_ignored() {
        let j = Json::parse(r#"{"op":"stats","tenant":"t","future_field":[1,2,3]}"#).unwrap();
        let r = Request::decode(&j).unwrap();
        assert_eq!(r.op, Op::Stats);
        assert_eq!(r.tenant, "t");
        assert_eq!(r.id, Json::Null);
    }

    #[test]
    fn string_question_splits_on_whitespace() {
        let j = Json::parse(
            r#"{"op":"ask","fingerprint":"00ff","question":"which  county\tis it"}"#,
        )
        .unwrap();
        let r = Request::decode(&j).unwrap();
        match r.op {
            Op::Ask(item) => {
                assert_eq!(item.question, vec!["which", "county", "is", "it"]);
                assert_eq!(item.fingerprint, 0xff);
            }
            other => panic!("expected ask, got {other:?}"),
        }
    }

    #[test]
    fn error_code_wire_names_are_unique_and_stable() {
        let mut names: Vec<&str> = ErrorCode::ALL.iter().map(|c| c.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ErrorCode::ALL.len());
        for c in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_str(c.as_str()), Some(c));
        }
    }
}
