//! JSON round-trip for [`MaxFlowConfig`] over the workspace's one codec,
//! [`crate::json`]: [`MaxFlowConfig::to_value`] and
//! [`MaxFlowConfig::from_value`] map a config to and from a [`Value`], and
//! [`MaxFlowConfig::to_json`] / [`MaxFlowConfig::from_json`] add the text.
//!
//! * Every field is written except `parallelism`: thread counts are
//!   machine-specific and never travel between machines. A document that
//!   names it is rejected, and a config read back runs sequentially until the
//!   deployment opts back in.
//! * Absent fields take their [`MaxFlowConfig::default`] values; `null` is an
//!   explicit `None` for the optional ones.
//! * Unknown fields are rejected, in the nested `racke` and `hierarchy`
//!   objects too.
//! * Writing refuses what would not read back as the same config: a NaN or
//!   infinite float, or an integer of 2⁵³ or more (a JSON number carries
//!   integers exactly only below that).
//!
//! The tests in `crates/core/tests/config_roundtrip.rs` pin these rules.

use capprox::{HierarchyConfig, RackeConfig};
use flowgraph::GraphError;

use crate::json::{self, Value};
use crate::solver::MaxFlowConfig;

impl MaxFlowConfig {
    /// The config as a JSON object, without the machine-specific
    /// `parallelism` field.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] naming the offending field if a
    /// float is NaN or infinite, or an integer is 2⁵³ or more: neither has a
    /// JSON form that parses back to the same value, and every document this
    /// returns does.
    pub fn to_value(&self) -> Result<Value, GraphError> {
        Ok(Value::obj(vec![
            ("epsilon", float("epsilon", self.epsilon)?),
            ("racke", racke_to_value(&self.racke)?),
            ("alpha", nullable(self.alpha, |a| float("alpha", a))?),
            (
                "max_iterations_per_phase",
                count("max_iterations_per_phase", self.max_iterations_per_phase)?,
            ),
            ("phases", nullable(self.phases, |p| count("phases", p))?),
            ("warm_start", Value::Bool(self.warm_start)),
            (
                "hierarchy",
                nullable(self.hierarchy.as_ref(), hierarchy_to_value)?,
            ),
        ]))
    }

    /// Reads a config from a JSON object such as [`MaxFlowConfig::to_value`]
    /// returns. Absent fields keep their [`MaxFlowConfig::default`] values,
    /// so `parallelism` comes back sequential.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] for a non-object, an unknown or
    /// skipped (`parallelism`) field, and a value of the wrong type or out of
    /// range, naming the field. The config is *not* validated — call
    /// [`MaxFlowConfig::validate`] before use, exactly as with a hand-built
    /// config.
    pub fn from_value(doc: &Value) -> Result<MaxFlowConfig, GraphError> {
        let mut config = MaxFlowConfig::default();
        for (key, v) in object("json", doc)? {
            match key.as_str() {
                "epsilon" => config.epsilon = read_float("epsilon", v)?,
                "racke" => config.racke = racke_from_value(v)?,
                "alpha" => config.alpha = read_nullable(v, |v| read_float("alpha", v))?,
                "max_iterations_per_phase" => {
                    config.max_iterations_per_phase = read_count("max_iterations_per_phase", v)?
                }
                "phases" => config.phases = read_nullable(v, |v| read_count("phases", v))?,
                "warm_start" => {
                    config.warm_start = v
                        .as_bool()
                        .ok_or_else(|| invalid("warm_start", "must be true or false"))?
                }
                "hierarchy" => config.hierarchy = read_nullable(v, hierarchy_from_value)?,
                "parallelism" => {
                    return Err(invalid(
                        "parallelism",
                        "is skipped: machine-specific thread counts never travel in config \
                         files (a config read back runs sequentially until the deployment \
                         opts back in)",
                    ))
                }
                _ => return Err(invalid("json", "has an unknown field")),
            }
        }
        Ok(config)
    }

    /// Serializes the config to a JSON object string: the text of
    /// [`MaxFlowConfig::to_value`].
    ///
    /// # Errors
    ///
    /// As [`MaxFlowConfig::to_value`].
    pub fn to_json(&self) -> Result<String, GraphError> {
        Ok(self
            .to_value()?
            .to_json()
            .expect("to_value emits only finite numbers"))
    }

    /// Parses a config previously written by [`MaxFlowConfig::to_json`] (or
    /// by hand), with the rules of [`MaxFlowConfig::from_value`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] for malformed JSON and for every
    /// document [`MaxFlowConfig::from_value`] rejects.
    pub fn from_json(text: &str) -> Result<MaxFlowConfig, GraphError> {
        let doc =
            json::parse(text).map_err(|_| invalid("json", "is not a well-formed JSON document"))?;
        MaxFlowConfig::from_value(&doc)
    }
}

fn racke_to_value(r: &RackeConfig) -> Result<Value, GraphError> {
    Ok(Value::obj(vec![
        (
            "num_trees",
            nullable(r.num_trees, |k| count("racke.num_trees", k))?,
        ),
        ("mwu_step", float("racke.mwu_step", r.mwu_step)?),
        ("seed", int("racke.seed", r.seed)?),
        ("lowstretch_z", float("racke.lowstretch_z", r.lowstretch_z)?),
        (
            "target_quality",
            nullable(r.target_quality, |q| float("racke.target_quality", q))?,
        ),
    ]))
}

fn hierarchy_to_value(h: &HierarchyConfig) -> Result<Value, GraphError> {
    Ok(Value::obj(vec![
        ("beta", float("hierarchy.beta", h.beta)?),
        (
            "direct_threshold",
            count("hierarchy.direct_threshold", h.direct_threshold)?,
        ),
        ("chains", count("hierarchy.chains", h.chains)?),
        (
            "trees_per_chain",
            nullable(h.trees_per_chain, |k| count("hierarchy.trees_per_chain", k))?,
        ),
        (
            "sparsify_epsilon",
            float("hierarchy.sparsify_epsilon", h.sparsify_epsilon)?,
        ),
        ("seed", int("hierarchy.seed", h.seed)?),
        ("max_levels", count("hierarchy.max_levels", h.max_levels)?),
    ]))
}

fn racke_from_value(doc: &Value) -> Result<RackeConfig, GraphError> {
    let mut racke = RackeConfig::default();
    for (key, v) in object("racke", doc)? {
        match key.as_str() {
            "num_trees" => {
                racke.num_trees = read_nullable(v, |v| read_count("racke.num_trees", v))?
            }
            "mwu_step" => racke.mwu_step = read_float("racke.mwu_step", v)?,
            "seed" => racke.seed = read_int("racke.seed", v)?,
            "lowstretch_z" => racke.lowstretch_z = read_float("racke.lowstretch_z", v)?,
            "target_quality" => {
                racke.target_quality = read_nullable(v, |v| read_float("racke.target_quality", v))?
            }
            _ => return Err(invalid("racke", "has an unknown field")),
        }
    }
    Ok(racke)
}

fn hierarchy_from_value(doc: &Value) -> Result<HierarchyConfig, GraphError> {
    let mut hierarchy = HierarchyConfig::default();
    for (key, v) in object("hierarchy", doc)? {
        match key.as_str() {
            "beta" => hierarchy.beta = read_float("hierarchy.beta", v)?,
            "direct_threshold" => {
                hierarchy.direct_threshold = read_count("hierarchy.direct_threshold", v)?
            }
            "chains" => hierarchy.chains = read_count("hierarchy.chains", v)?,
            "trees_per_chain" => {
                hierarchy.trees_per_chain =
                    read_nullable(v, |v| read_count("hierarchy.trees_per_chain", v))?
            }
            "sparsify_epsilon" => {
                hierarchy.sparsify_epsilon = read_float("hierarchy.sparsify_epsilon", v)?
            }
            "seed" => hierarchy.seed = read_int("hierarchy.seed", v)?,
            "max_levels" => hierarchy.max_levels = read_count("hierarchy.max_levels", v)?,
            _ => return Err(invalid("hierarchy", "has an unknown field")),
        }
    }
    Ok(hierarchy)
}

fn invalid(parameter: &'static str, reason: &'static str) -> GraphError {
    GraphError::InvalidConfig { parameter, reason }
}

fn float(parameter: &'static str, x: f64) -> Result<Value, GraphError> {
    if x.is_finite() {
        Ok(Value::Num(x))
    } else {
        Err(invalid(
            parameter,
            "is not finite: NaN/infinite floats have no JSON representation",
        ))
    }
}

fn int(parameter: &'static str, x: u64) -> Result<Value, GraphError> {
    if x < 1 << 53 {
        Ok(Value::index(x))
    } else {
        Err(invalid(
            parameter,
            "is 2^53 or more: a JSON number carries integers exactly only below 2^53",
        ))
    }
}

fn count(parameter: &'static str, x: usize) -> Result<Value, GraphError> {
    int(parameter, x as u64)
}

fn nullable<T>(
    x: Option<T>,
    write: impl FnOnce(T) -> Result<Value, GraphError>,
) -> Result<Value, GraphError> {
    x.map_or(Ok(Value::Null), write)
}

fn object<'a>(parameter: &'static str, v: &'a Value) -> Result<&'a [(String, Value)], GraphError> {
    match v {
        Value::Obj(pairs) => Ok(pairs),
        _ => Err(invalid(parameter, "must be a JSON object")),
    }
}

fn read_float(parameter: &'static str, v: &Value) -> Result<f64, GraphError> {
    v.as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| invalid(parameter, "must be a finite number"))
}

fn read_int(parameter: &'static str, v: &Value) -> Result<u64, GraphError> {
    v.as_index()
        .ok_or_else(|| invalid(parameter, "must be a non-negative integer below 2^53"))
}

fn read_count(parameter: &'static str, v: &Value) -> Result<usize, GraphError> {
    usize::try_from(read_int(parameter, v)?).map_err(|_| invalid(parameter, "does not fit a usize"))
}

fn read_nullable<T>(
    v: &Value,
    read: impl FnOnce(&Value) -> Result<T, GraphError>,
) -> Result<Option<T>, GraphError> {
    match v {
        Value::Null => Ok(None),
        v => read(v).map(Some),
    }
}
