//! The wire protocol: newline-delimited JSON frames.
//!
//! One request per line, one response line per request, in order.
//!
//! ## Request frame
//!
//! ```json
//! {"name": "job-1", "dag": "c17", "minimize": true, "portfolio": 2}
//! ```
//!
//! Fields (all optional except `dag`):
//!
//! | field          | type              | meaning                                         |
//! |----------------|-------------------|-------------------------------------------------|
//! | `name`         | string            | echoed in the response (default `"session"`)    |
//! | `dag`          | string or object  | builtin name, or an adjacency description       |
//! | `pebbles`      | integer           | fixed pebble budget                             |
//! | `minimize`     | bool              | search for the minimum budget (the default when no budget is given) |
//! | `portfolio`    | integer           | race N diversified workers                      |
//! | `share_clauses`| bool              | exchange learnt clauses between workers         |
//! | `diversify`    | bool              | jitter worker configurations                    |
//! | `incremental`  | bool              | keep one solver across probes                   |
//! | `weighted`     | bool              | budget counts weight units                      |
//! | `max_steps`    | integer           | step cap per probe                              |
//! | `timeout_ms`   | integer           | per-budget-probe timeout (default 10 000); a fixed budget is one probe |
//! | `deadline_ms`  | integer           | wall deadline for the whole request             |
//! | `quota`        | integer           | SAT-conflict quota for the request              |
//!
//! The `dag` object form is the adjacency schema of
//! [`Dag::from_json`]; builtin names are those of
//! [`revpebble_graph::builtins`].
//!
//! ## Response frames
//!
//! - success: `{"name":…,"status":"ok","report":{…}}` with the full
//!   [`Report::to_json`](revpebble_core::session::Report::to_json)
//!   object (its `stop_reason` still distinguishes quota/deadline/
//!   cancel stops from clean finishes);
//! - rejected frame: `{"name":…,"status":"error","kind":"bad-request",
//!   "error":"…"}` — the connection survives;
//! - invalid session: `{"name":…,"status":"error","kind":"session",
//!   "code":"<SessionError variant>","error":"…"}`;
//! - quarantined panic: `{"name":…,"status":"error","kind":"panic",…}`;
//! - shed load: `{"name":…,"status":"overloaded","error":"…"}` — retry
//!   later, nothing was admitted.

use std::fmt;

use revpebble_core::session::{Report, SessionError};
use revpebble_graph::json::{json_escape, DagJsonError, JsonError, JsonReader, JsonToken};
use revpebble_graph::{builtin_dag, Dag, BUILTIN_DAG_NAMES, MAX_JSON_DAG_NODES};

/// The DAG a request asks about: a named builtin or an inline
/// adjacency description (already parsed and validated).
#[derive(Debug, Clone, PartialEq)]
pub enum DagSpec {
    /// One of [`BUILTIN_DAG_NAMES`].
    Builtin(String),
    /// An inline DAG from the request's adjacency object.
    Inline(Dag),
}

impl DagSpec {
    /// Resolves the spec to the DAG to pebble. Builtin names were
    /// validated at parse time, so this cannot fail.
    pub fn resolve(&self) -> Dag {
        match self {
            DagSpec::Builtin(name) => {
                builtin_dag(name).expect("builtin names are validated at parse time")
            }
            DagSpec::Inline(dag) => dag.clone(),
        }
    }
}

/// One parsed request frame (see the [module docs](self) for the
/// schema).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen label, echoed in the response.
    pub name: String,
    /// What to pebble.
    pub dag: DagSpec,
    /// Fixed pebble budget.
    pub pebbles: Option<usize>,
    /// Search for the minimum budget.
    pub minimize: bool,
    /// Race N diversified workers.
    pub portfolio: Option<usize>,
    /// Exchange learnt clauses between portfolio workers.
    pub share_clauses: bool,
    /// Jitter worker configurations.
    pub diversify: bool,
    /// Keep one solver across probes (engine default when `None`).
    pub incremental: Option<bool>,
    /// Budget counts weight units.
    pub weighted: bool,
    /// Step cap per probe.
    pub max_steps: Option<usize>,
    /// Per-budget-probe timeout in milliseconds; it bounds a fixed
    /// budget's whole solve, which is one probe.
    pub timeout_ms: Option<u64>,
    /// Wall deadline for the whole request in milliseconds.
    pub deadline_ms: Option<u64>,
    /// SAT-conflict quota for the request.
    pub quota: Option<u64>,
}

impl Request {
    /// A minimal request on a builtin DAG, for clients built in code.
    pub fn builtin(name: impl Into<String>, dag: impl Into<String>) -> Request {
        Request {
            name: name.into(),
            dag: DagSpec::Builtin(dag.into()),
            pebbles: None,
            minimize: false,
            portfolio: None,
            share_clauses: false,
            diversify: false,
            incremental: None,
            weighted: false,
            max_steps: None,
            timeout_ms: None,
            deadline_ms: None,
            quota: None,
        }
    }

    /// A minimal request on an inline DAG.
    pub fn inline(name: impl Into<String>, dag: Dag) -> Request {
        Request {
            dag: DagSpec::Inline(dag),
            ..Request::builtin(name, "")
        }
    }

    /// Parses one request frame, validating field names (typo guard),
    /// field shapes, builtin names and inline DAG descriptions. The
    /// session-level configuration is *not* validated here — that is
    /// `PebblingSession::plan()`'s job, so conflicting flags come back
    /// as typed `SessionError`s in the response instead.
    ///
    /// The frame is read in one pass: an inline `dag` object goes
    /// straight into a [`Dag`], with no JSON tree in between. Syntax
    /// errors anywhere in the frame come first; then the checks run in a
    /// fixed order, whatever order the fields came in: unknown fields,
    /// repeated fields, `dag`, then the other fields as the table in the
    /// [module docs](self) lists them.
    pub fn parse(line: &str) -> Result<Request, RequestError> {
        let json = |err: JsonError| RequestError::Json(err.to_string());
        let mut reader = JsonReader::new(line);
        let mut request = Request::builtin("session", "");
        let mut dag = None;
        // The index in `FIELDS` of the first field given with the wrong
        // type; past its end while there is none.
        let mut wrong = usize::MAX;
        let root = reader.value().map_err(json)?;
        // A repeated key would be silently shadowed, e.g.
        // {"dag":"c17","dag":{…}} ignoring the second dag: it is rejected
        // like a typo.
        let stray = if matches!(root, JsonToken::Object) {
            let stray = reader.fields(&FIELDS, |reader, index| {
                let key = FIELDS[index];
                if key == "dag" {
                    dag = Some(read_dag(reader)?);
                } else if read_field(reader, key, &mut request)?.is_none() {
                    wrong = wrong.min(index);
                }
                Ok(())
            });
            Some(stray.map_err(json)?)
        } else {
            reader.skip(root).map_err(json)?;
            None
        };
        reader.finish().map_err(json)?;

        let Some(stray) = stray else {
            return Err(RequestError::BadField {
                field: "<frame>".into(),
                expected: "a JSON object",
            });
        };
        if let Some(key) = stray.unknown {
            return Err(RequestError::UnknownField(key.into_owned()));
        }
        if let Some(key) = stray.repeated {
            return Err(RequestError::DuplicateField(key.into_owned()));
        }
        let Some(dag) = dag else {
            return Err(RequestError::BadField {
                field: "dag".into(),
                expected: DAG_EXPECTED,
            });
        };
        request.dag = dag?;
        if let Some(&field) = FIELDS.get(wrong) {
            return Err(RequestError::BadField {
                field: field.into(),
                expected: expected(field),
            });
        }
        Ok(request)
    }

    /// Renders the request as one frame line (no trailing newline) —
    /// the inverse of [`parse`](Self::parse).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let _ = write!(out, "\"name\":\"{}\"", json_escape(&self.name));
        match &self.dag {
            DagSpec::Builtin(name) => {
                let _ = write!(out, ",\"dag\":\"{}\"", json_escape(name));
            }
            DagSpec::Inline(dag) => {
                let _ = write!(out, ",\"dag\":{}", dag.to_adjacency_json());
            }
        }
        if let Some(pebbles) = self.pebbles {
            let _ = write!(out, ",\"pebbles\":{pebbles}");
        }
        if self.minimize {
            out.push_str(",\"minimize\":true");
        }
        if let Some(portfolio) = self.portfolio {
            let _ = write!(out, ",\"portfolio\":{portfolio}");
        }
        if self.share_clauses {
            out.push_str(",\"share_clauses\":true");
        }
        if self.diversify {
            out.push_str(",\"diversify\":true");
        }
        if let Some(incremental) = self.incremental {
            let _ = write!(out, ",\"incremental\":{incremental}");
        }
        if self.weighted {
            out.push_str(",\"weighted\":true");
        }
        if let Some(max_steps) = self.max_steps {
            let _ = write!(out, ",\"max_steps\":{max_steps}");
        }
        if let Some(timeout_ms) = self.timeout_ms {
            let _ = write!(out, ",\"timeout_ms\":{timeout_ms}");
        }
        if let Some(deadline_ms) = self.deadline_ms {
            let _ = write!(out, ",\"deadline_ms\":{deadline_ms}");
        }
        if let Some(quota) = self.quota {
            let _ = write!(out, ",\"quota\":{quota}");
        }
        out.push('}');
        out
    }
}

/// What a missing or `null` `dag` should have been.
const DAG_EXPECTED: &str = "a builtin name or an adjacency object";

/// The request fields. After `dag`, [`Request::parse`] checks their
/// types in this order, which is the order of the table in the [module
/// docs](self).
const FIELDS: [&str; 13] = [
    "dag",
    "name",
    "pebbles",
    "minimize",
    "portfolio",
    "share_clauses",
    "diversify",
    "incremental",
    "weighted",
    "max_steps",
    "timeout_ms",
    "deadline_ms",
    "quota",
];

/// Reads the value of `key`, a field of [`FIELDS`] other than `dag`,
/// into `r`: `None` when it has the wrong type.
fn read_field(
    reader: &mut JsonReader<'_>,
    key: &str,
    r: &mut Request,
) -> Result<Option<()>, JsonError> {
    Ok(match key {
        "name" => reader.str_value()?.map(|name| r.name = name.into_owned()),
        "pebbles" => reader.u64_value()?.map(|n| r.pebbles = Some(n as usize)),
        "minimize" => reader.bool_value()?.map(|flag| r.minimize = flag),
        "portfolio" => reader.u64_value()?.map(|n| r.portfolio = Some(n as usize)),
        "share_clauses" => reader.bool_value()?.map(|flag| r.share_clauses = flag),
        "diversify" => reader.bool_value()?.map(|flag| r.diversify = flag),
        "incremental" => reader.bool_value()?.map(|flag| r.incremental = Some(flag)),
        "weighted" => reader.bool_value()?.map(|flag| r.weighted = flag),
        "max_steps" => reader.u64_value()?.map(|n| r.max_steps = Some(n as usize)),
        "timeout_ms" => reader.u64_value()?.map(|n| r.timeout_ms = Some(n)),
        "deadline_ms" => reader.u64_value()?.map(|n| r.deadline_ms = Some(n)),
        "quota" => reader.u64_value()?.map(|n| r.quota = Some(n)),
        _ => unreachable!("a key of FIELDS"),
    })
}

/// What `key`, a field [`read_field`] reads, must be.
fn expected(key: &str) -> &'static str {
    match key {
        "name" => "a string",
        "minimize" | "share_clauses" | "diversify" | "incremental" | "weighted" => "a boolean",
        _ => "a non-negative integer",
    }
}

/// Reads the `dag` value: a builtin name, or an adjacency object built
/// into its [`Dag`] on the spot. The outer error is a syntax error; the
/// inner one is reported once the whole frame has been read.
fn read_dag(reader: &mut JsonReader<'_>) -> Result<Result<DagSpec, RequestError>, JsonError> {
    let bad = |expected| {
        Err(RequestError::BadField {
            field: "dag".into(),
            expected,
        })
    };
    Ok(match reader.value()? {
        JsonToken::Str(name) if !BUILTIN_DAG_NAMES.contains(&name.as_ref()) => {
            Err(RequestError::UnknownBuiltin(name.into_owned()))
        }
        JsonToken::Str(name) => Ok(DagSpec::Builtin(name.into_owned())),
        JsonToken::Object => Dag::read_json(reader, MAX_JSON_DAG_NODES)?
            .map(DagSpec::Inline)
            .map_err(RequestError::Dag),
        JsonToken::Null => bad(DAG_EXPECTED),
        other => {
            reader.skip(other)?;
            bad("a string (builtin name) or an object (adjacency description)")
        }
    })
}

/// Why a request frame was rejected before any session was planned.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The line is not valid JSON.
    Json(String),
    /// A field has the wrong shape.
    BadField {
        /// The offending field.
        field: String,
        /// What it should have been.
        expected: &'static str,
    },
    /// A field the schema does not define.
    UnknownField(String),
    /// A field given more than once (the duplicates would be silently
    /// ignored otherwise).
    DuplicateField(String),
    /// `dag` names no builtin workload.
    UnknownBuiltin(String),
    /// The inline adjacency description is invalid (cyclic, oversized,
    /// unknown ops, …).
    Dag(DagJsonError),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Json(err) => write!(f, "{err}"),
            RequestError::BadField { field, expected } => {
                write!(f, "field {field:?} must be {expected}")
            }
            RequestError::UnknownField(field) => write!(
                f,
                "unknown field {field:?} (see the wire-protocol docs for the schema)"
            ),
            RequestError::DuplicateField(field) => {
                write!(f, "field {field:?} is given more than once")
            }
            RequestError::UnknownBuiltin(name) => write!(
                f,
                "unknown builtin DAG {name:?} (expected one of {})",
                BUILTIN_DAG_NAMES.join(", ")
            ),
            RequestError::Dag(err) => write!(f, "invalid dag description: {err}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// The success response: the request's name plus the full report.
pub fn ok_response(name: &str, report: &Report) -> String {
    format!(
        "{{\"name\":\"{}\",\"status\":\"ok\",\"report\":{}}}",
        json_escape(name),
        report.to_json()
    )
}

/// A typed error response; `kind` is one of `"bad-request"`,
/// `"session"`, `"panic"`.
pub fn error_response(name: &str, kind: &str, message: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"status\":\"error\",\"kind\":\"{}\",\"error\":\"{}\"}}",
        json_escape(name),
        json_escape(kind),
        json_escape(message)
    )
}

/// The response for a configuration [`PebblingSession::plan()`]
/// rejected: carries the [`SessionError`] variant name as a stable
/// machine-readable `code` alongside the human message.
///
/// [`PebblingSession::plan()`]: revpebble_core::session::PebblingSession::plan
pub fn session_error_response(name: &str, err: &SessionError) -> String {
    let debug = format!("{err:?}");
    let code = debug
        .split([' ', '(', '{'])
        .next()
        .unwrap_or("SessionError");
    format!(
        "{{\"name\":\"{}\",\"status\":\"error\",\"kind\":\"session\",\"code\":\"{}\",\"error\":\"{}\"}}",
        json_escape(name),
        json_escape(code),
        json_escape(&err.to_string())
    )
}

/// The load-shedding response: nothing was admitted; the client should
/// retry later.
pub fn overloaded_response(name: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"status\":\"overloaded\",\"error\":\"server at max pending sessions; retry later\"}}",
        json_escape(name)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use revpebble_graph::generators::paper_example;
    use revpebble_graph::json::parse_json;

    #[test]
    fn request_round_trips_through_the_frame_format() {
        let mut request = Request::builtin("job-1", "c17");
        request.minimize = true;
        request.portfolio = Some(2);
        request.share_clauses = true;
        request.quota = Some(50_000);
        request.timeout_ms = Some(2_500);
        assert_eq!(Request::parse(&request.to_json()).unwrap(), request);

        let inline = Request::inline("inline \"job\"", paper_example());
        assert_eq!(Request::parse(&inline.to_json()).unwrap(), inline);
    }

    #[test]
    fn parse_rejects_bad_frames_with_typed_errors() {
        assert!(matches!(
            Request::parse("not json"),
            Err(RequestError::Json(_))
        ));
        assert!(matches!(
            Request::parse("[]"),
            Err(RequestError::BadField { .. })
        ));
        assert!(matches!(
            Request::parse(r#"{"dag":"paper","surprise":1}"#),
            Err(RequestError::UnknownField(_))
        ));
        assert!(matches!(
            Request::parse(r#"{"dag":"c17","dag":"paper"}"#),
            Err(RequestError::DuplicateField(_))
        ));
        assert!(matches!(
            Request::parse(r#"{"dag":"atlantis"}"#),
            Err(RequestError::UnknownBuiltin(_))
        ));
        assert!(matches!(
            Request::parse(r#"{"name":"x"}"#),
            Err(RequestError::BadField { .. })
        ));
        assert!(matches!(
            Request::parse(r#"{"dag":{"nodes":[{"name":"a","op":"not","fanins":["a"]}]}}"#),
            Err(RequestError::Dag(_))
        ));
        assert!(matches!(
            Request::parse(r#"{"dag":"paper","pebbles":"four"}"#),
            Err(RequestError::BadField { .. })
        ));
    }

    #[test]
    fn responses_stay_valid_json_for_hostile_names() {
        let name = "job \"7\"\nwith\\escapes";
        for response in [
            error_response(name, "bad-request", "broken \"frame\""),
            overloaded_response(name),
        ] {
            let value = parse_json(&response).expect("responses must be valid JSON");
            assert_eq!(value.get("name").unwrap().as_str(), Some(name));
        }
    }
}
