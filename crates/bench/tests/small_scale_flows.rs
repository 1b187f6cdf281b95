//! The paper's two qualitative claims on the full flow at `Scale::Small`,
//! the scale `repro --scale small` prints: partitioning the L2 adds no
//! MPEG-2 misses over the shared cache (the §4 headline direction), and
//! the partitioned JPEG+Canny system is compositional, each entity's
//! simulated misses within 5 % of its stand-alone expectation (Figure 3).

use compmem_bench::{run_jpeg_canny_flow, run_mpeg2_flow, Scale};

#[test]
fn small_scale_partitioning_keeps_the_headline_and_compositionality() {
    let mpeg2 = run_mpeg2_flow(Scale::Small).expect("MPEG-2 flow runs");
    assert!(
        mpeg2.partitioned.report.l2.misses <= mpeg2.shared.report.l2.misses,
        "partitioned {} L2 misses against shared {}",
        mpeg2.partitioned.report.l2.misses,
        mpeg2.shared.report.l2.misses
    );

    let jpeg_canny = run_jpeg_canny_flow(Scale::Small).expect("JPEG+Canny flow runs");
    let error = jpeg_canny.compositionality.max_relative_difference();
    assert!(error < 0.05, "compositionality error {error:.3}");
}
