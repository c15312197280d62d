//! The scenario file format, stated once. The schema table at the bottom
//! of this file lists every schema type's keys in canonical order, each
//! with its mode: `req` (required), `opt` (left out when `None`, absent or
//! `null` reads as `None`), `or(default)` (always written, absent or `null`
//! reads as `default`), `flat` (a nested record whose keys sit in this
//! object) or `skip(value)` (not in the file, reads as `value`); a key's
//! type is its Rust field's type. A tagged union lists its variants under
//! their `kind` strings. Each entry becomes one [`Record::visit`], and two
//! codecs drive those visits: [`Reader`] checks a parsed JSON [`Value`]
//! strictly against them, and [`Writer`] builds the canonical `Value` that
//! `to_json_pretty` prints. The accepted-fields and accepted-kinds lists
//! in the reader's errors are what the visit declared.
//!
//! Reader errors name the JSON path. Within one object an unknown or
//! duplicate key beats a missing or mistyped field, and a tagged object's
//! `kind` is resolved before the keys of its variant are known; otherwise
//! the first failing field in visit order is reported.

use std::mem::discriminant;

use serde::{Serialize, Value};

use super::{
    CatalogChaosDecl, Control, EdgeDecl, EventDecl, Faults, Links, PolicyDecl, ProfileDecl,
    Scenario, ScenarioError, SiteDecl, StorageDecl, TelemetryDecl, TieredLinks, TimelineEvent,
    Topology, WorkloadDecl,
};

/// Parse a scenario document (structure and types only; `validate` does
/// the cross-references).
pub(super) fn read(v: &Value) -> Result<Scenario, ScenarioError> {
    read_object(v, ROOT)
}

/// The canonical `Value` of a scenario, which `to_json_pretty` prints.
impl Serialize for Scenario {
    fn to_value(&self) -> Value {
        self.clone().write()
    }
}

/// One schema type: a JSON object whose keys are visited in order.
trait Record: Blank {
    fn visit<C: Codec>(&mut self, c: &mut C);
}

/// The value the reader fills in before it reads a key.
trait Blank {
    fn blank() -> Self;
}

impl<T: Default> Blank for T {
    fn blank() -> Self {
        T::default()
    }
}

/// What a visit says about one key (see the module docs for the modes).
trait Codec {
    fn req<T: Field>(&mut self, key: &'static str, v: &mut T);
    fn opt<T: Field>(&mut self, key: &'static str, v: &mut Option<T>);
    fn or<T: Field>(&mut self, key: &'static str, v: &mut T, default: T);
    /// The `kind` discriminator, with one blank value per variant.
    fn kind<T>(&mut self, v: &mut T, kinds: Vec<(&'static str, T)>);

    fn skip<T>(&mut self, _key: &'static str, _v: &mut T, _value: T) {}

    fn flat<T: Record>(&mut self, _key: &'static str, v: &mut T)
    where
        Self: Sized,
    {
        v.visit(self);
    }
}

/// A value a key can hold.
trait Field: Sized {
    fn read(v: &Value, key: &str, ctx: &str) -> Result<Self, ScenarioError>;
    fn write(&mut self) -> Value;
}

// ---------------------------------------------------------------------------
// Field values
// ---------------------------------------------------------------------------

fn schema(message: String) -> ScenarioError {
    ScenarioError::Schema(message)
}

fn kind_of(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Int(_) | Value::UInt(_) => "integer",
        Value::Float(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

fn type_err(key: &str, ctx: &str, want: &str, got: &Value) -> ScenarioError {
    schema(format!("field `{key}` in {ctx} must be a {want}, got {}", kind_of(got)))
}

impl Field for String {
    fn read(v: &Value, key: &str, ctx: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(type_err(key, ctx, "string", other)),
        }
    }

    fn write(&mut self) -> Value {
        Value::String(self.clone())
    }
}

impl Field for u64 {
    fn read(v: &Value, key: &str, ctx: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::UInt(n) => Ok(*n),
            Value::Int(n) if *n >= 0 => Ok(*n as u64),
            other => Err(type_err(key, ctx, "non-negative integer", other)),
        }
    }

    fn write(&mut self) -> Value {
        Value::UInt(*self)
    }
}

impl Field for usize {
    fn read(v: &Value, key: &str, ctx: &str) -> Result<Self, ScenarioError> {
        u64::read(v, key, ctx).map(|n| n as usize)
    }

    fn write(&mut self) -> Value {
        Value::UInt(*self as u64)
    }
}

impl Field for f64 {
    fn read(v: &Value, key: &str, ctx: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::Float(x) => Ok(*x),
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            other => Err(type_err(key, ctx, "number", other)),
        }
    }

    fn write(&mut self) -> Value {
        Value::Float(*self)
    }
}

impl Field for bool {
    fn read(v: &Value, key: &str, ctx: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(type_err(key, ctx, "bool", other)),
        }
    }

    fn write(&mut self) -> Value {
        Value::Bool(*self)
    }
}

impl<T: Field> Field for Vec<T> {
    fn read(v: &Value, key: &str, ctx: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::read(item, &format!("{key}[{i}]"), ctx))
                .collect(),
            other => Err(type_err(key, ctx, "array", other)),
        }
    }

    fn write(&mut self) -> Value {
        Value::Array(self.iter_mut().map(Field::write).collect())
    }
}

impl<T: Record> Field for T {
    fn read(v: &Value, key: &str, ctx: &str) -> Result<Self, ScenarioError> {
        read_object(v, &path(ctx, key))
    }

    fn write(&mut self) -> Value {
        let mut w = Writer(Vec::new());
        self.visit(&mut w);
        Value::Object(w.0)
    }
}

/// How errors name the whole document.
const ROOT: &str = "the scenario";

/// The context of the object at `key` under `ctx`: `` `a.b` `` under
/// `` `a` ``. A `storage` or edge `profile` object keeps the
/// `` `a`.storage `` form its errors have always had.
fn path(ctx: &str, key: &str) -> String {
    match ctx.strip_suffix('`') {
        _ if ctx == ROOT => format!("`{key}`"),
        Some(inner) if !matches!(key, "storage" | "profile") => format!("{inner}.{key}`"),
        _ => format!("{ctx}.{key}"),
    }
}

// ---------------------------------------------------------------------------
// The two codecs
// ---------------------------------------------------------------------------

/// Reads one JSON object into a [`Record`].
struct Reader<'v> {
    fields: &'v [(String, Value)],
    ctx: &'v str,
    /// Every key the visit declared: the accepted fields.
    keys: Vec<&'static str>,
    /// The first missing or mistyped field.
    err: Option<ScenarioError>,
    /// The `kind` did not resolve, so the variant's keys are unknown.
    halted: bool,
}

fn read_object<T: Record>(v: &Value, ctx: &str) -> Result<T, ScenarioError> {
    let Value::Object(fields) = v else {
        return Err(schema(format!("{ctx} must be a JSON object, got {}", kind_of(v))));
    };
    let mut reader = Reader { fields, ctx, keys: Vec::new(), err: None, halted: false };
    let mut out = T::blank();
    out.visit(&mut reader);
    reader.finish().map(|()| out)
}

impl<'v> Reader<'v> {
    /// Declare `key` and read its value: `None` once the visit halted, when
    /// the key is unset (absent, or `null` where `optional`), or when it is
    /// missing or mistyped (the first such error is kept).
    fn value<T: Field>(&mut self, key: &'static str, optional: bool) -> Option<T> {
        self.keys.push(key);
        let fields: &'v [(String, Value)] = self.fields;
        match fields.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
            _ if self.halted => None,
            None | Some(Value::Null) if optional => None,
            None => {
                let e = schema(format!("missing required field `{key}` in {}", self.ctx));
                self.err.get_or_insert(e);
                None
            }
            Some(raw) => T::read(raw, key, self.ctx).map_err(|e| self.err.get_or_insert(e)).ok(),
        }
    }

    fn finish(self) -> Result<(), ScenarioError> {
        if !self.halted {
            for (i, (key, _)) in self.fields.iter().enumerate() {
                if !self.keys.contains(&key.as_str()) {
                    return Err(schema(format!(
                        "unknown field `{key}` in {} (accepted fields: {})",
                        self.ctx,
                        self.keys.join(", ")
                    )));
                }
                if self.fields[..i].iter().any(|(k, _)| k == key) {
                    return Err(schema(format!("duplicate field `{key}` in {}", self.ctx)));
                }
            }
        }
        self.err.map_or(Ok(()), Err)
    }
}

impl Codec for Reader<'_> {
    fn req<T: Field>(&mut self, key: &'static str, v: &mut T) {
        if let Some(x) = self.value(key, false) {
            *v = x;
        }
    }

    fn opt<T: Field>(&mut self, key: &'static str, v: &mut Option<T>) {
        *v = self.value(key, true);
    }

    fn or<T: Field>(&mut self, key: &'static str, v: &mut T, default: T) {
        *v = self.value(key, true).unwrap_or(default);
    }

    fn kind<T>(&mut self, v: &mut T, mut kinds: Vec<(&'static str, T)>) {
        // An earlier error wins, and no variant's keys are known until the
        // kind resolves.
        let earlier = self.err.is_some();
        let kind: Option<String> = self.value("kind", false);
        self.halted = true;
        let Some(kind) = kind.filter(|_| !earlier) else { return };
        match kinds.iter().position(|(name, _)| *name == kind) {
            Some(i) => {
                *v = kinds.swap_remove(i).1;
                self.halted = false;
            }
            None => {
                let accepted: Vec<&str> = kinds.iter().map(|(name, _)| *name).collect();
                self.err = Some(schema(format!(
                    "unknown kind `{kind}` in {} (accepted kinds: {})",
                    self.ctx,
                    accepted.join(", ")
                )))
            }
        }
    }
}

/// Builds the canonical JSON object of a [`Record`].
struct Writer(Vec<(String, Value)>);

impl Codec for Writer {
    fn req<T: Field>(&mut self, key: &'static str, v: &mut T) {
        self.0.push((key.to_string(), v.write()));
    }

    fn opt<T: Field>(&mut self, key: &'static str, v: &mut Option<T>) {
        if let Some(x) = v {
            self.req(key, x);
        }
    }

    fn or<T: Field>(&mut self, key: &'static str, v: &mut T, _default: T) {
        self.req(key, v);
    }

    fn kind<T>(&mut self, v: &mut T, kinds: Vec<(&'static str, T)>) {
        self.0.push(("kind".to_string(), Value::String(kind_name(v, &kinds).to_string())));
    }
}

/// The `kind` of `v`'s variant.
pub(super) fn kind_name<T>(v: &T, kinds: &[(&'static str, T)]) -> &'static str {
    let found = kinds.iter().find(|(_, blank)| discriminant(blank) == discriminant(v));
    found.expect("every variant has a kind").0
}

// ---------------------------------------------------------------------------
// The schema
// ---------------------------------------------------------------------------

/// The blank value of a key in the given mode.
macro_rules! blank {
    (opt) => {
        None
    };
    ($mode:ident($value:expr)) => {
        $value
    };
    ($mode:ident) => {
        Blank::blank()
    };
}

/// A struct schema: its keys in canonical order, each with its mode.
macro_rules! records {
    ($($ty:ident { $($key:ident: $mode:ident $(($default:expr))?),* $(,)? })*) => {$(
        impl Blank for $ty {
            fn blank() -> Self {
                $ty { $($key: blank!($mode $(($default))?)),* }
            }
        }

        impl Record for $ty {
            fn visit<C: Codec>(&mut self, c: &mut C) {
                $(c.$mode(stringify!($key), &mut self.$key $(, $default)?);)*
            }
        }
    )*};
}

/// A tagged-union schema: each variant under its `kind`, then its keys as
/// in [`records!`]. The first variant is the reader's blank.
macro_rules! tagged {
    ($($ty:ident {
        $($kind:literal => $variant:ident { $($key:ident: $mode:ident $(($default:expr))?),* $(,)? }),* $(,)?
    })*) => {$(
        impl $ty {
            pub(super) fn kinds() -> Vec<(&'static str, $ty)> {
                vec![$(($kind, $ty::$variant { $($key: blank!($mode $(($default))?)),* })),*]
            }
        }

        impl Blank for $ty {
            fn blank() -> Self {
                $ty::kinds().swap_remove(0).1
            }
        }

        impl Record for $ty {
            fn visit<C: Codec>(&mut self, c: &mut C) {
                c.kind(self, $ty::kinds());
                match self {
                    $($ty::$variant { $($key),* } => {
                        $(c.$mode(stringify!($key), $key $(, $default)?);)*
                    })*
                }
            }
        }
    )*};
}

records! {
    Scenario {
        name: req, seed: req, topology: req, links: req, control: req, telemetry: req,
        faults: req, workload: req,
    }
    SiteDecl {
        name: req, org: req, key_seed: req, pool_capacity: opt,
        storage: or(StorageDecl::ClassicTape),
    }
    EdgeDecl { a: req, b: req, profile: req }
    Links { default: req, edges: or(Vec::new()), tiered: opt, workers: skip(1) }
    TieredLinks { backbone: req, regional: req }
    Control {
        collection: req, recovery: or(true), breaker: or(true), federation: or(false),
        fetch_policy: or(PolicyDecl::Default), trust_all: or(true),
        full_mesh_subscriptions: or(false),
    }
    TelemetryDecl {
        recorder_capacity: opt, timeseries_bucket_ns: opt, timeseries_after_build: or(false),
    }
    CatalogChaosDecl { crashes: req, losses: req, delays: req }
    TimelineEvent { at_ns: req, event: flat }
}

tagged! {
    Topology {
        "explicit" => Explicit { sites: req },
        "flat" => Flat {
            count: req, prefix: req, pad: or(0), key_seed_base: req,
            storage: or(StorageDecl::ClassicTape),
        },
        "tiered" => Tiered {
            tier1: req, tier2_per_tier1: req, key_seed_base: req,
            storage: or(StorageDecl::ClassicTape),
        },
    }
    StorageDecl {
        "classic_tape" => ClassicTape {},
        "tape" => Tape {
            mount_ms: req, seek_bytes_per_sec: req, stream_bytes_per_sec: req, drives: req,
            tape_capacity: req,
        },
        "disk_array" => DiskArray { capacity: req, op_latency_us: req, stream_bytes_per_sec: req },
        "object_store" => ObjectStore {
            rtt_us: req, stream_bytes_per_sec: req, cost_per_request: req, cost_per_mib: req,
        },
    }
    ProfileDecl {
        "cern_anl_production" => CernAnlProduction {},
        "clean" => Clean { rate_bps: req, one_way_us: req, queue: req },
    }
    PolicyDecl {
        "default" => Default {},
        "single" => Single {},
        "multi" => Multi { max_sources: req, min_chunk: req },
    }
    Faults {
        "none" => None {},
        "empty" => Empty {},
        "seeded" => Seeded { catalog_chaos: opt },
        "timeline" => Timeline { events: req },
    }
    EventDecl {
        "site_down" => SiteDown { site: req },
        "site_up" => SiteUp { site: req },
        "link_down" => LinkDown { from: req, to: req, both_ways: or(false) },
        "link_up" => LinkUp { from: req, to: req, both_ways: or(false) },
    }
    WorkloadDecl {
        "fetch" => Fetch {
            size: req, lfn: req, dst: req, sources: req, t0_ns: req, settle_ns: req,
        },
        "replication_soak" => ReplicationSoak {
            rounds: req, file_size: req, round_gap_ns: req, drain_rounds: req,
        },
        "catalog_soak" => CatalogSoak {
            files_per_site: req, lookup_rounds: req, lookups_per_round: req, zipf_alpha: req,
            file_size: req, round_gap_ns: req,
        },
        "grid_soak" => GridSoak {
            files_per_site: req, rounds: req, ops_per_round: req, zipf_alpha: req,
            file_size: req, round_gap_ns: req,
        },
    }
}
