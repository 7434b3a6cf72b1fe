//! Statistical machinery: Leveugle-style sampling error margins, weighted
//! AVF aggregation (Section V-A) and the OPF metric (Section V-G).

/// Confidence level of every reported error margin (the paper's 95 %).
pub const CONFIDENCE: f64 = 0.95;

/// Two-sided normal quantile for common confidence levels.
fn z_for_confidence(confidence: f64) -> f64 {
    if (confidence - 0.90).abs() < 1e-9 {
        1.645
    } else if (confidence - 0.95).abs() < 1e-9 {
        1.960
    } else if (confidence - 0.99).abs() < 1e-9 {
        2.576
    } else {
        // Acklam-style rough inverse CDF for other levels.
        let p = 1.0 - (1.0 - confidence) / 2.0;
        inverse_normal_cdf(p)
    }
}

#[allow(clippy::excessive_precision)] // coefficients verbatim from the published table
fn inverse_normal_cdf(p: f64) -> f64 {
    // Beasley-Springer-Moro approximation, adequate for reporting.
    let a = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    let b = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    let c = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    let d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00];
    let plow = 0.02425;
    if p < plow {
        let q = (-2.0 * p.ln()).sqrt();
        (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
            / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    } else if p <= 1.0 - plow {
        let q = p - 0.5;
        let r = q * q;
        (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// Error margin `e` of an SFI campaign with `n` samples drawn from a
/// population of `population` fault sites (bits × cycles), at the given
/// confidence, assuming worst-case p = 0.5 (Leveugle et al., DATE'09):
///
/// `e = z * sqrt(p(1-p)/n * (N-n)/(N-1))`
///
/// The paper's configuration — 1000 faults, 95% confidence — yields
/// roughly a 3% margin for large populations.
pub fn error_margin(n: usize, population: u64, confidence: f64) -> f64 {
    assert!(n > 0);
    let z = z_for_confidence(confidence);
    let p = 0.5;
    let nf = n as f64;
    let nn = population.max(n as u64) as f64;
    let fpc = if nn > 1.0 { ((nn - nf) / (nn - 1.0)).max(0.0) } else { 0.0 };
    z * (p * (1.0 - p) / nf * fpc).sqrt()
}

/// Sample size required for a target margin `e` (inverse of
/// [`error_margin`]), per the same formulation.
pub fn required_samples(e: f64, population: u64, confidence: f64) -> usize {
    let z = z_for_confidence(confidence);
    let p = 0.5;
    let nn = population as f64;
    let n = nn / (1.0 + e * e * (nn - 1.0) / (z * z * p * (1.0 - p)));
    n.ceil() as usize
}

/// Weighted AVF (Section V-A):
/// `wAVF(c) = Σ_k AVF_k(c)·t_k / Σ_k t_k`, where `t_k` is benchmark `k`'s
/// execution time. Input: `(avf, exec_time)` pairs.
pub fn weighted_avf(items: &[(f64, f64)]) -> f64 {
    let total_t: f64 = items.iter().map(|(_, t)| t).sum();
    if total_t == 0.0 {
        return 0.0;
    }
    items.iter().map(|(a, t)| a * t).sum::<f64>() / total_t
}

/// Operations-per-Failure (Section V-G): `OPF = OPS / AVF` where
/// `OPS = ops / exec_time_seconds`. Larger OPF = better
/// reliability/performance trade-off.
pub fn opf(ops_per_run: f64, exec_seconds: f64, avf: f64) -> f64 {
    if avf <= 0.0 {
        return f64::INFINITY;
    }
    (ops_per_run / exec_seconds) / avf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_margin_1000_faults_95_conf() {
        // The paper: "our 1,000 faults correspond to 3% error margin with
        // 95% confidence level" for effectively infinite populations.
        let e = error_margin(1000, u64::MAX, 0.95);
        assert!((e - 0.031).abs() < 0.002, "margin {e}");
    }

    #[test]
    fn margin_shrinks_with_samples_and_population_exhaustion() {
        assert!(error_margin(2000, u64::MAX, 0.95) < error_margin(500, u64::MAX, 0.95));
        // Sampling the whole population → no error.
        assert!(error_margin(1000, 1000, 0.95) < 1e-12);
    }

    #[test]
    fn required_samples_roundtrip() {
        let n = required_samples(0.03, u64::MAX / 2, 0.95);
        assert!((1000..1200).contains(&n), "{n}");
        let e = error_margin(n, u64::MAX / 2, 0.95);
        assert!(e <= 0.0301);
    }

    #[test]
    fn confidence_levels_ordered() {
        assert!(error_margin(1000, u64::MAX, 0.99) > error_margin(1000, u64::MAX, 0.95));
        assert!(error_margin(1000, u64::MAX, 0.95) > error_margin(1000, u64::MAX, 0.90));
        // Approximate inverse CDF for a non-standard level.
        let e97 = error_margin(1000, u64::MAX, 0.97);
        assert!(e97 > error_margin(1000, u64::MAX, 0.95));
        assert!(e97 < error_margin(1000, u64::MAX, 0.99));
    }

    #[test]
    fn weighted_avf_weights_by_time() {
        // Long benchmark at 10% dominates a short one at 90%.
        let w = weighted_avf(&[(0.10, 1000.0), (0.90, 10.0)]);
        assert!(w < 0.12, "{w}");
        assert_eq!(weighted_avf(&[]), 0.0);
        let uniform = weighted_avf(&[(0.2, 5.0), (0.4, 5.0)]);
        assert!((uniform - 0.3).abs() < 1e-12);
    }

    #[test]
    fn opf_prefers_fast_despite_higher_avf() {
        // Paper Observation #7: the DSA is more vulnerable but wins on OPF
        // because it is much faster.
        let cpu = opf(1.0, 1e-3, 0.05); // 1 task / ms at 5% AVF
        let dsa = opf(1.0, 1e-5, 0.40); // 1 task / 10 µs at 40% AVF
        assert!(dsa > cpu);
        assert!(opf(1.0, 1.0, 0.0).is_infinite());
    }
}
