//! The process-global thermal-model table: which platform builds
//! eigendecompose, which reuse a model, and what it refuses to keep.
//!
//! Own test binary holding one `#[test]`: it enables the process-global
//! `mosc-obs` recorder and counts `eigen.calls` deltas, which any other
//! build running in the same process would disturb.

use mosc::analyze::json::Value;
use mosc::analyze::{analyze_spec, platform_from_doc, Code};
use mosc::sched::{shared_thermal_models, Platform, PlatformSpec, THERMAL_MODEL_CAPACITY};

fn eigen_calls() -> u64 {
    mosc::obs::counter_value("eigen.calls").unwrap_or(0)
}

/// `eigen.calls` added by decoding and building `platform` (the members of
/// a spec's `platform` section) through the daemon's decoder.
fn build_cost(platform: &str) -> u64 {
    let before = eigen_calls();
    let doc = Value::parse(&format!(r#"{{"platform":{platform}}}"#)).unwrap();
    platform_from_doc(&doc).unwrap_or_else(|e| panic!("{platform}: {e}"));
    eigen_calls() - before
}

#[test]
fn the_table_builds_once_per_floorplan_cooler_and_beta() {
    mosc::obs::enable();

    // A floorplan nothing else in this process has built.
    assert_eq!(build_cost(r#"{"rows":2,"cols":3,"levels":[0.6,1.3],"t_max_c":55.0}"#), 1);
    // Other levels, T_max or τ: the same model.
    assert_eq!(build_cost(r#"{"rows":2,"cols":3,"levels":[0.6,1.3],"t_max_c":61.0}"#), 0);
    assert_eq!(
        build_cost(r#"{"rows":2,"cols":3,"levels":[0.6,0.8,1.0,1.3],"t_max_c":55.0,"tau":1e-5}"#),
        0
    );
    // α and γ shape B(v), not A: still the same model.
    assert_eq!(
        build_cost(r#"{"rows":2,"cols":3,"levels":[0.6,1.3],"t_max_c":55.0,"alpha":1.0}"#),
        0
    );
    // `Platform::build` shares the decoder's table.
    let before = eigen_calls();
    Platform::build(&PlatformSpec::paper(2, 3, 5, 70.0)).unwrap();
    assert_eq!(eigen_calls() - before, 0, "Platform::build must reuse the decoder's model");
    // "layers": 1 is the planar grid, the same model again.
    assert_eq!(
        build_cost(r#"{"rows":2,"cols":3,"layers":1,"levels":[0.6,1.3],"t_max_c":55.0}"#),
        0
    );

    // Another cooler, layer count or β is another model, built once.
    for other in [
        r#"{"rows":2,"cols":3,"levels":[0.6,1.3],"t_max_c":55.0,"cooler":"budget"}"#,
        r#"{"rows":2,"cols":3,"layers":2,"levels":[0.6,1.3],"t_max_c":55.0}"#,
        r#"{"rows":2,"cols":3,"levels":[0.6,1.3],"t_max_c":55.0,"beta":0.05}"#,
    ] {
        assert_eq!(build_cost(other), 1, "{other}");
        assert_eq!(build_cost(&other.replace("55.0", "60.0")), 0, "{other} again");
    }

    // An unstable β is refused the same way every time and never stored:
    // each attempt eigendecomposes again.
    let unstable =
        r#"{"platform":{"rows":2,"cols":3,"levels":[0.6,1.3],"t_max_c":55.0,"beta":1000.0}}"#;
    let stored = shared_thermal_models();
    let refusals: Vec<String> = (0..2)
        .map(|_| {
            let before = eigen_calls();
            let err = platform_from_doc(&Value::parse(unstable).unwrap()).unwrap_err();
            assert_eq!(eigen_calls() - before, 1, "a refused model is rebuilt, not served");
            err.to_string()
        })
        .collect();
    assert_eq!(refusals[0], refusals[1]);
    assert!(refusals[0].contains("M007"), "{}", refusals[0]);
    let reports: Vec<String> = (0..2)
        .map(|_| {
            let report = analyze_spec(unstable).unwrap();
            assert!(report.diagnostics().iter().any(|d| d.code == Code::NotHurwitz), "{report}");
            report.to_string()
        })
        .collect();
    assert_eq!(reports[0], reports[1]);
    assert_eq!(shared_thermal_models(), stored, "a failed build must not be stored");

    // The table never holds more than its capacity.
    for i in 0..THERMAL_MODEL_CAPACITY + 3 {
        let beta = 0.001 * i as f64;
        let platform =
            format!(r#"{{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0,"beta":{beta:?}}}"#);
        assert_eq!(build_cost(&platform), 1, "{platform}");
        assert!(shared_thermal_models() <= THERMAL_MODEL_CAPACITY);
    }
    assert_eq!(shared_thermal_models(), THERMAL_MODEL_CAPACITY);
    mosc::obs::disable();
}
