//! Guards the workspace wiring itself: the `adc_bist` umbrella crate
//! must re-export every member crate under the documented name, so a
//! manifest regression (dropped dependency, renamed lib target) fails
//! `cargo test` rather than only surfacing in downstream CI.

/// Each re-export resolves and is the same crate the members expose:
/// a value produced through the umbrella path must typecheck against
/// the member path.
#[test]
fn umbrella_reexports_resolve() {
    // adc_bist::dsp is bist_dsp.
    let c: bist_dsp::complex::Complex64 = adc_bist::dsp::complex::Complex64::from_re(1.0);
    assert_eq!(c.re, 1.0);

    // adc_bist::adc is bist_adc.
    let r: bist_adc::types::Resolution = adc_bist::adc::types::Resolution::SIX_BIT;
    assert_eq!(r.bits(), 6);

    // adc_bist::rtl is bist_rtl.
    let counter: bist_rtl::counter::Counter = adc_bist::rtl::counter::Counter::new(4);
    assert_eq!(counter.value().width(), 4);

    // adc_bist::core is bist_core (the re-export shadows `::core`; the
    // paper harness is reachable through it).
    let spec = adc_bist::adc::spec::LinearitySpec::paper_stringent();
    let config: bist_core::config::BistConfig =
        adc_bist::core::config::BistConfig::builder(r, spec)
            .counter_bits(4)
            .build()
            .expect("paper operating point");
    assert_eq!(config.counter_bits(), 4);

    // adc_bist::mc is bist_mc.
    let batch: bist_mc::batch::Batch = adc_bist::mc::batch::Batch::paper_simulation(1, 3);
    assert_eq!(batch.size, 3);
}

/// The five documented module paths exist as paths (compile-time check
/// that `use` statements in downstream code keep working).
#[test]
fn umbrella_use_paths_compile() {
    #[allow(unused_imports)]
    use adc_bist::{adc, core, dsp, mc, rtl};
}
