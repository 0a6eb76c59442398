//! Interposer registry: canonical names → constructors.
//!
//! Every mechanism registers a constructor under a stable lowercase name,
//! so drivers (simperf, simtrace, simfault, the pitfalls matrix, the
//! table/figure generators) resolve interposers uniformly instead of each
//! maintaining its own per-mechanism `match`. The builtins defined in this
//! crate (native, ptrace, SUD) are pre-seeded; mechanism crates higher in
//! the dependency graph add theirs via [`register`] (each exports a
//! `register()` convenience, and `pitfalls::register_all()` installs the
//! full set).

use crate::ptrace::PtraceInterposer;
use crate::sud::SudInterposer;
use crate::{Interposer, Native};
use std::sync::{LazyLock, Mutex};

/// Constructor for one registered interposer.
pub type Maker = fn() -> Box<dyn Interposer>;

/// Canonical registry order: baselines first, then mechanisms in the
/// paper's presentation order, cheapest variant first.
const ORDER: &[&str] = &[
    "native",
    "ptrace",
    "sud",
    "sud-armed",
    "zpoline",
    "zpoline-ultra",
    "lazypoline",
    "k23",
    "k23-ultra",
    "k23-ultra+",
];

static REGISTRY: LazyLock<Mutex<Vec<(&'static str, Maker)>>> = LazyLock::new(|| {
    Mutex::new(vec![
        ("native", (|| Box::new(Native)) as Maker),
        ("ptrace", || Box::new(PtraceInterposer::new())),
        ("sud", || Box::new(SudInterposer::new())),
        ("sud-armed", || Box::new(SudInterposer::armed_only())),
    ])
});

/// Registers (or replaces) the constructor for `name`.
///
/// Idempotent: re-registering the same name overwrites the previous
/// constructor, so crate-level `register()` helpers are safe to call from
/// every test.
pub fn register(name: &'static str, maker: Maker) {
    let mut reg = REGISTRY.lock().unwrap();
    if let Some(slot) = reg.iter_mut().find(|(n, _)| *n == name) {
        slot.1 = maker;
    } else {
        reg.push((name, maker));
    }
}

/// Why a registry spec failed to resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec (or one of its `+`-separated segments) was empty.
    Empty,
    /// The base mechanism name is not registered.
    UnknownName(String),
    /// A layer segment names no known stack layer.
    UnknownLayer(String),
    /// The same layer appears twice in one spec.
    DuplicateLayer(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Empty => write!(f, "empty interposer spec"),
            SpecError::UnknownName(n) => write!(f, "unknown mechanism {n:?}"),
            SpecError::UnknownLayer(l) => write!(f, "unknown stack layer {l:?}"),
            SpecError::DuplicateLayer(l) => write!(f, "duplicate stack layer {l:?}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Splits a registry spec into its base mechanism and layer names.
///
/// Grammar: `base[+layer]*`, where `base` is a registered mechanism name
/// and layers come from [`crate::stack`]. Because registered names may
/// themselves contain `+` (`"k23-ultra+"`), the base is the **longest**
/// registered name that prefixes the spec at a `+` boundary (or the whole
/// spec).
///
/// # Errors
///
/// [`SpecError`] on an empty spec/segment, an unregistered base, an
/// unknown layer, or a repeated layer.
pub fn parse_spec(spec: &str) -> Result<(String, Vec<String>), SpecError> {
    if spec.is_empty() {
        return Err(SpecError::Empty);
    }
    let registered: Vec<&'static str> = {
        let reg = REGISTRY.lock().unwrap();
        reg.iter().map(|(n, _)| *n).collect()
    };
    if registered.contains(&spec) {
        return Ok((spec.to_string(), Vec::new()));
    }
    let mut base: Option<&str> = None;
    for n in registered {
        if spec.starts_with(n)
            && spec[n.len()..].starts_with('+')
            && base.is_none_or(|b| n.len() > b.len())
        {
            base = Some(n);
        }
    }
    let Some(base) = base else {
        let head = spec.split('+').next().unwrap_or(spec);
        return Err(SpecError::UnknownName(head.to_string()));
    };
    let mut layers: Vec<String> = Vec::new();
    for seg in spec[base.len() + 1..].split('+') {
        if seg.is_empty() {
            return Err(SpecError::Empty);
        }
        if !crate::stack::layer_known(seg) {
            return Err(SpecError::UnknownLayer(seg.to_string()));
        }
        if layers.iter().any(|l| l == seg) {
            return Err(SpecError::DuplicateLayer(seg.to_string()));
        }
        layers.push(seg.to_string());
    }
    Ok((base.to_string(), layers))
}

/// Builds the interposer a spec describes: a bare registered mechanism
/// (`"k23"`) or a composed stack (`"k23+tracer+recorder"`), which wraps
/// the base in an [`crate::stack::InterposerStack`] carrying the named
/// layers.
///
/// # Errors
///
/// [`SpecError`] when the spec does not parse (see [`parse_spec`]).
pub fn by_name_spec(spec: &str) -> Result<Box<dyn Interposer>, SpecError> {
    let (base, layers) = parse_spec(spec)?;
    let maker = {
        let reg = REGISTRY.lock().unwrap();
        reg.iter().find(|(n, _)| *n == base).map(|(_, m)| *m)
    };
    let base_ip = maker.map(|m| m()).ok_or(SpecError::UnknownName(base))?;
    if layers.is_empty() {
        return Ok(base_ip);
    }
    Ok(Box::new(crate::stack::InterposerStack::new(
        base_ip, &layers,
    )))
}

/// Currently registered names, in canonical order (names outside
/// `ORDER` follow, in registration order).
pub fn names() -> Vec<&'static str> {
    let reg = REGISTRY.lock().unwrap();
    let mut out: Vec<&'static str> = ORDER
        .iter()
        .copied()
        .filter(|o| reg.iter().any(|(n, _)| n == o))
        .collect();
    for (n, _) in reg.iter() {
        if !out.contains(n) {
            out.push(n);
        }
    }
    out
}

/// Builds every registered interposer, in canonical order.
pub fn all() -> Vec<Box<dyn Interposer>> {
    names().iter().filter_map(|n| by_name_spec(n).ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_and_roundtrip_names() {
        for name in ["native", "ptrace", "sud", "sud-armed"] {
            let ip = by_name_spec(name).expect("builtin registered");
            assert_eq!(ip.name(), name);
        }
        assert_eq!(
            by_name_spec("no-such-mechanism").err(),
            Some(SpecError::UnknownName("no-such-mechanism".to_string()))
        );
    }

    #[test]
    fn spec_parse_errors_are_typed() {
        assert_eq!(parse_spec("").err(), Some(SpecError::Empty));
        assert_eq!(parse_spec("sud+").err(), Some(SpecError::Empty));
        assert_eq!(parse_spec("sud++tracer").err(), Some(SpecError::Empty));
        assert_eq!(
            parse_spec("bogus+tracer").err(),
            Some(SpecError::UnknownName("bogus".to_string()))
        );
        assert_eq!(
            parse_spec("sud+nope").err(),
            Some(SpecError::UnknownLayer("nope".to_string()))
        );
        assert_eq!(
            parse_spec("sud+tracer+tracer").err(),
            Some(SpecError::DuplicateLayer("tracer".to_string()))
        );
        let (base, layers) = parse_spec("sud+tracer+recorder").expect("parses");
        assert_eq!(base, "sud");
        assert_eq!(layers, vec!["tracer", "recorder"]);
    }

    #[test]
    fn composed_specs_resolve_and_intern_names() {
        let ip = by_name_spec("sud+tracer+recorder").expect("composed spec");
        assert_eq!(ip.name(), "sud+tracer+recorder");
        assert_eq!(ip.label(), "sud+tracer+recorder");
        assert!(by_name_spec("sud+tracer").is_ok());
        assert!(by_name_spec("sud+nope").is_err());
    }

    #[test]
    fn names_are_canonically_ordered() {
        let ns = names();
        let native = ns.iter().position(|n| *n == "native").unwrap();
        let sud = ns.iter().position(|n| *n == "sud").unwrap();
        assert!(native < sud);
    }

    #[test]
    fn register_replaces_existing_entry() {
        register("native", || Box::new(Native));
        let ip = by_name_spec("native").unwrap();
        assert_eq!(ip.label(), "native");
    }
}
