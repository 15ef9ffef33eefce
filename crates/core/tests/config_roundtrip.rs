//! `MaxFlowConfig` coverage: the JSON round-trip of `config_io` (including
//! the rule that the machine-specific parallelism field never travels) and a
//! table-driven `validate()` suite covering every `GraphError::InvalidConfig`
//! arm.

use capprox::{HierarchyConfig, RackeConfig};
use flowgraph::GraphError;
use maxflow::{MaxFlowConfig, Parallelism};

fn sample_config() -> MaxFlowConfig {
    MaxFlowConfig::default()
        .with_epsilon(0.25)
        .with_racke(
            RackeConfig::default()
                .with_num_trees(6)
                .with_seed(0xfeed_beef)
                .with_target_quality(1.75),
        )
        .with_alpha(Some(3.5))
        .with_max_iterations_per_phase(1234)
        .with_phases(Some(4))
        .with_warm_start(true)
        .with_parallelism(Parallelism::with_threads(8))
}

fn mwu_step(step: f64) -> RackeConfig {
    RackeConfig {
        mwu_step: step,
        ..RackeConfig::default()
    }
}

fn lowstretch_z(z: f64) -> RackeConfig {
    RackeConfig {
        lowstretch_z: z,
        ..RackeConfig::default()
    }
}

#[test]
fn round_trip_preserves_every_serialized_field() {
    let config = sample_config();
    let restored = MaxFlowConfig::from_json(&config.to_json().unwrap()).unwrap();
    assert_eq!(restored.epsilon.to_bits(), config.epsilon.to_bits());
    assert_eq!(restored.racke.num_trees, config.racke.num_trees);
    assert_eq!(
        restored.racke.mwu_step.to_bits(),
        config.racke.mwu_step.to_bits()
    );
    assert_eq!(restored.racke.seed, config.racke.seed);
    assert_eq!(
        restored.racke.lowstretch_z.to_bits(),
        config.racke.lowstretch_z.to_bits()
    );
    assert_eq!(
        restored.alpha.map(f64::to_bits),
        config.alpha.map(f64::to_bits)
    );
    assert_eq!(
        restored.max_iterations_per_phase,
        config.max_iterations_per_phase
    );
    assert_eq!(restored.phases, config.phases);
    assert_eq!(
        restored.racke.target_quality.map(f64::to_bits),
        config.racke.target_quality.map(f64::to_bits)
    );
    assert_eq!(restored.warm_start, config.warm_start);
    // A round-tripped valid config stays valid.
    restored.validate().unwrap();
}

#[test]
fn skipped_parallelism_deserializes_to_the_sequential_default() {
    // The skipped field never travels: an 8-thread config serializes
    // without any parallelism key and comes back sequential.
    let config = sample_config();
    assert_eq!(config.parallelism.threads(), 8);
    let json = config.to_json().unwrap();
    assert!(
        !json.contains("parallelism") && !json.contains("threads"),
        "skipped fields must not be serialized: {json}"
    );
    let restored = MaxFlowConfig::from_json(&json).unwrap();
    assert_eq!(restored.parallelism.threads(), 1);
    assert_eq!(
        restored.parallelism.threads(),
        Parallelism::default().threads()
    );
}

#[test]
fn explicit_parallelism_key_is_rejected() {
    let err = MaxFlowConfig::from_json(r#"{"epsilon":0.1,"parallelism":{"threads":64}}"#)
        .expect_err("skip-annotated fields may not appear in documents");
    match err {
        GraphError::InvalidConfig { parameter, reason } => {
            assert_eq!(parameter, "parallelism");
            assert!(reason.contains("skip"), "{reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn nulls_and_absent_fields_restore_defaults() {
    // `null` is an explicit None for the Option fields.
    let restored = MaxFlowConfig::from_json(
        r#"{"epsilon":0.5,"alpha":null,"phases":null,"racke":{"num_trees":null}}"#,
    )
    .unwrap();
    assert_eq!(restored.alpha, None);
    assert_eq!(restored.phases, None);
    assert_eq!(restored.racke.num_trees, None);
    let trimless = MaxFlowConfig::from_json(r#"{"racke":{"target_quality":null}}"#).unwrap();
    assert_eq!(trimless.racke.target_quality, None);
    // Absent fields mean "the default".
    let defaults = MaxFlowConfig::default();
    assert!(!defaults.warm_start, "warm_start must default off");
    assert_eq!(defaults.racke.target_quality, None);
    let sparse = MaxFlowConfig::from_json(r#"{"epsilon":0.5}"#).unwrap();
    assert!(!sparse.warm_start);
    assert_eq!(
        sparse.max_iterations_per_phase,
        defaults.max_iterations_per_phase
    );
    assert_eq!(sparse.racke.seed, defaults.racke.seed);
    assert_eq!(
        sparse.racke.mwu_step.to_bits(),
        defaults.racke.mwu_step.to_bits()
    );
    // An empty document is exactly the default config.
    let empty = MaxFlowConfig::from_json("{}").unwrap();
    assert_eq!(empty.epsilon.to_bits(), defaults.epsilon.to_bits());
    assert_eq!(empty.phases, defaults.phases);
}

#[test]
fn non_finite_floats_are_rejected_at_serialization_time() {
    // Regression (documented asymmetry, since fixed): `to_json` used to emit
    // `null` for non-finite floats — a *valid* JSON document that
    // `from_json` then rejected for required float fields (and silently
    // turned `Some(NaN)` alpha into `None`). The round-trip guarantee is now
    // unconditional: `to_json` refuses non-finite configs up front, naming
    // the offending field, and every document it does emit parses back.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        match sample_config().with_epsilon(bad).to_json() {
            Err(GraphError::InvalidConfig { parameter, reason }) => {
                assert_eq!(parameter, "epsilon");
                assert!(reason.contains("finite"), "{reason}");
            }
            other => panic!("epsilon={bad}: expected InvalidConfig, got {other:?}"),
        }
    }
    // Optional floats are rejected too — the old behavior resurrected
    // `Some(NaN)` as `None`, a silent config change.
    match sample_config().with_alpha(Some(f64::NAN)).to_json() {
        Err(GraphError::InvalidConfig { parameter, .. }) => assert_eq!(parameter, "alpha"),
        other => panic!("alpha=NaN: expected InvalidConfig, got {other:?}"),
    }
    // The NaN-epsilon config from the issue: validate() and to_json() agree
    // that it never leaves the process.
    let nan_eps = sample_config().with_epsilon(f64::NAN);
    assert!(nan_eps.validate().is_err());
    assert!(nan_eps.to_json().is_err());
    // And every *finite* config still round-trips exactly.
    let json = sample_config().to_json().unwrap();
    let restored = MaxFlowConfig::from_json(&json).unwrap();
    assert_eq!(restored.alpha.map(f64::to_bits), Some(3.5f64.to_bits()));
}

#[test]
fn seeds_must_be_exact_json_integers() {
    // A JSON number carries integers exactly only below 2^53, so a larger
    // seed is refused by name instead of being written rounded.
    let big = RackeConfig::default().with_seed(1 << 53);
    match sample_config().with_racke(big).to_json() {
        Err(GraphError::InvalidConfig { parameter, .. }) => assert_eq!(parameter, "racke.seed"),
        other => panic!("seed=2^53: expected InvalidConfig, got {other:?}"),
    }
    let hierarchy = HierarchyConfig {
        seed: u64::MAX,
        ..HierarchyConfig::default()
    };
    match sample_config().with_hierarchy(Some(hierarchy)).to_json() {
        Err(GraphError::InvalidConfig { parameter, .. }) => {
            assert_eq!(parameter, "hierarchy.seed")
        }
        other => panic!("hierarchy seed=u64::MAX: expected InvalidConfig, got {other:?}"),
    }
    // The largest exact seed survives the round trip, and reading refuses
    // what it cannot hold exactly rather than rounding it.
    let largest = (1u64 << 53) - 1;
    let config = sample_config().with_racke(RackeConfig::default().with_seed(largest));
    let restored = MaxFlowConfig::from_json(&config.to_json().unwrap()).unwrap();
    assert_eq!(restored.racke.seed, largest);
    assert!(MaxFlowConfig::from_json(r#"{"racke":{"seed":9007199254740993}}"#).is_err());
}

#[test]
fn hierarchy_round_trips_through_value() {
    let hierarchy = HierarchyConfig::default()
        .with_beta(12.5)
        .with_chains(3)
        .with_direct_threshold(64);
    let config = sample_config().with_hierarchy(Some(hierarchy.clone()));
    let value = config.to_value().unwrap();
    let restored = MaxFlowConfig::from_value(&value).unwrap();
    assert_eq!(restored.hierarchy, Some(hierarchy));
    // The text form is exactly the value's text.
    assert_eq!(config.to_json().unwrap(), value.to_json().unwrap());
    assert!(MaxFlowConfig::from_json(r#"{"hierarchy":{"beta":8,"extra":1}}"#).is_err());
}

#[test]
fn malformed_documents_are_rejected() {
    for bad in [
        "",
        "{",
        "{}}",
        "not json at all",
        r#"{"epsilon":}"#,
        r#"{"epsilon":0.1"#,
        r#"{"epsilon":0.1} trailing"#,
        r#"{"epsilon":"a string"}"#,
        r#"{"unknown_field":1}"#,
        r#"{"racke":{"unknown":1}}"#,
        r#"{"max_iterations_per_phase":-3}"#,
        r#"{"epsilon":0.1 "alpha":null}"#,
        r#"{"warm_start":1}"#,
        r#"{"warm_start":"yes"}"#,
        // Not JSON numbers, even though `str::parse::<f64>` accepts them.
        r#"{"racke":{"mwu_step":NaN}}"#,
        r#"{"racke":{"lowstretch_z":inf}}"#,
        // A repeated key is ambiguous; neither occurrence silently wins.
        r#"{"epsilon":0.1,"epsilon":0.2}"#,
    ] {
        assert!(
            MaxFlowConfig::from_json(bad).is_err(),
            "document {bad:?} must be rejected"
        );
    }
}

/// Every `GraphError::InvalidConfig` arm of `validate()`, table-driven: the
/// offending builder call, the parameter the error must name, and a word the
/// reason must contain.
#[test]
fn validate_rejects_every_invalid_config_arm() {
    let base = sample_config;
    let cases: Vec<(MaxFlowConfig, &str, &str)> = vec![
        (base().with_epsilon(0.0), "epsilon", "finite"),
        (base().with_epsilon(-1.0), "epsilon", "finite"),
        (base().with_epsilon(f64::NAN), "epsilon", "finite"),
        (base().with_epsilon(f64::INFINITY), "epsilon", "finite"),
        (
            base().with_max_iterations_per_phase(0),
            "max_iterations_per_phase",
            "at least 1",
        ),
        (base().with_phases(Some(0)), "phases", "at least 1"),
        (
            base().with_racke(RackeConfig::default().with_num_trees(0)),
            "racke.num_trees",
            "at least 1",
        ),
        (base().with_alpha(Some(0.0)), "alpha", "finite"),
        (base().with_alpha(Some(-2.0)), "alpha", "finite"),
        (base().with_alpha(Some(f64::NAN)), "alpha", "finite"),
        (
            base().with_alpha(Some(f64::NEG_INFINITY)),
            "alpha",
            "finite",
        ),
        (
            base().with_racke(RackeConfig::default().with_target_quality(0.5)),
            "racke.target_quality",
            "finite",
        ),
        (
            base().with_racke(RackeConfig::default().with_target_quality(f64::NAN)),
            "racke.target_quality",
            "finite",
        ),
        (
            base().with_racke(RackeConfig::default().with_target_quality(f64::INFINITY)),
            "racke.target_quality",
            "finite",
        ),
        (
            base().with_racke(mwu_step(-5.0)),
            "racke.mwu_step",
            "finite",
        ),
        (
            base().with_racke(mwu_step(f64::NAN)),
            "racke.mwu_step",
            "finite",
        ),
        (
            base().with_racke(mwu_step(f64::INFINITY)),
            "racke.mwu_step",
            "finite",
        ),
        (
            base().with_racke(lowstretch_z(f64::NAN)),
            "racke.lowstretch_z",
            "finite",
        ),
        (
            base().with_racke(lowstretch_z(f64::INFINITY)),
            "racke.lowstretch_z",
            "finite",
        ),
        (
            base().with_racke(lowstretch_z(0.0)),
            "racke.lowstretch_z",
            ">= 2",
        ),
        (
            base().with_racke(lowstretch_z(-3.0)),
            "racke.lowstretch_z",
            ">= 2",
        ),
        (
            base().with_racke(lowstretch_z(1.0)),
            "racke.lowstretch_z",
            ">= 2",
        ),
    ];
    for (config, parameter, reason_word) in cases {
        match config.validate() {
            Err(GraphError::InvalidConfig {
                parameter: p,
                reason,
            }) => {
                assert_eq!(p, parameter, "wrong parameter named");
                assert!(
                    reason.contains(reason_word),
                    "{parameter}: reason {reason:?} lacks {reason_word:?}"
                );
                // The Display form names the offending parameter too.
                let display = GraphError::InvalidConfig {
                    parameter: p,
                    reason,
                }
                .to_string();
                assert!(display.contains(parameter), "{display}");
            }
            other => panic!("{parameter}: expected InvalidConfig, got {other:?}"),
        }
    }
    // The happy path: every boundary-but-legal knob passes.
    for ok in [
        base(),
        base().with_alpha(None),
        base().with_phases(None),
        base().with_racke(RackeConfig::default()),
        base().with_epsilon(f64::MIN_POSITIVE),
        base().with_max_iterations_per_phase(1),
        base().with_phases(Some(1)),
        base().with_racke(RackeConfig::default().with_target_quality(1.0)),
        base().with_racke(mwu_step(0.0)),
        base().with_racke(lowstretch_z(2.0)),
        base().with_warm_start(false),
    ] {
        ok.validate().unwrap();
    }
}
