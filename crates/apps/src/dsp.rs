//! DSP: shared signal-processing primitives **and** a standalone
//! spectral-analyzer streaming application.
//!
//! The primitives — an iterative radix-2 FFT, a windowed polyphase
//! filter and a fixed-point quantiser — are real arithmetic shared by
//! the application kernels (the audio pipeline genuinely transforms
//! samples).
//!
//! [`graph`] packages them as a fourth realistic application for the
//! scheduler: a real-time spectrum analyzer
//!
//! ```text
//! acquire ─> window ─┬─> fft0 ─┬─> magnitude ─> detect
//!                    └─> fft1 ─┘
//! ```
//!
//! (acquire a frame from memory, Hann-window it, transform the two
//! half-frames on parallel FFT lanes, fold the spectra into magnitudes,
//! and run a branchy peak detector). Its cost mix is the classic Cell
//! shape: the FFT lanes are heavily SIMD-friendly, the detector prefers
//! the PPE — which is what makes it a useful co-scheduling partner for
//! the video pipeline in the multi-application bench.

use cellstream_graph::{GraphError, StreamGraph, TaskSpec};

/// Samples per analysis frame.
pub const FRAME_SAMPLES: usize = 2048;
/// Bytes of one acquired frame (`f32` samples).
pub const FRAME_BYTES: f64 = (FRAME_SAMPLES * 4) as f64;
/// Parallel FFT lanes.
const FFT_LANES: usize = 2;

/// Build the spectrum-analyzer graph. Costs are microsecond-scale with
/// the unrelated-machine mix described in the module docs.
pub fn graph() -> Result<StreamGraph, GraphError> {
    let mut b = StreamGraph::builder("dsp-analyzer");
    let acquire =
        b.add_task(TaskSpec::new("acquire").ppe_cost(0.7e-6).spe_cost(0.9e-6).reads(FRAME_BYTES));
    let window = b.add_task(
        // SIMD multiply-accumulate over the frame: 3x faster on an SPE
        TaskSpec::new("window").ppe_cost(1.8e-6).spe_cost(0.6e-6),
    );
    let mut lanes = Vec::new();
    for lane in 0..FFT_LANES {
        lanes.push(b.add_task(
            // butterfly-heavy transform, the SPE sweet spot
            TaskSpec::new(format!("fft{lane}")).ppe_cost(4.2e-6).spe_cost(1.3e-6),
        ));
    }
    let magnitude = b.add_task(TaskSpec::new("magnitude").ppe_cost(1.4e-6).spe_cost(0.5e-6));
    let detect = b.add_task(
        // branchy thresholding with a running noise floor: PPE-friendly,
        // stateful
        TaskSpec::new("detect").ppe_cost(0.9e-6).spe_cost(1.6e-6).stateful().writes(512.0),
    );

    b.add_edge(acquire, window, FRAME_BYTES)?;
    for &l in &lanes {
        b.add_edge(window, l, FRAME_BYTES / FFT_LANES as f64)?;
    }
    for &l in &lanes {
        b.add_edge(l, magnitude, FRAME_BYTES / FFT_LANES as f64)?;
    }
    b.add_edge(magnitude, detect, 1024.0)?;
    b.build()
}

/// In-place iterative radix-2 Cooley–Tukey FFT over interleaved
/// `(re, im)` pairs. `data.len()` must be a power of two.
fn fft_radix2(re: &mut [f32], im: &mut [f32]) {
    let n = re.len();
    assert_eq!(n, im.len());
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    if n <= 1 {
        return;
    }
    // bit-reversal permutation
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f32::consts::PI / len as f32;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cur_r, mut cur_i) = (1.0f32, 0.0f32);
            for k in 0..len / 2 {
                let (ur, ui) = (re[i + k], im[i + k]);
                let (vr, vi) = (
                    re[i + k + len / 2] * cur_r - im[i + k + len / 2] * cur_i,
                    re[i + k + len / 2] * cur_i + im[i + k + len / 2] * cur_r,
                );
                re[i + k] = ur + vr;
                im[i + k] = ui + vi;
                re[i + k + len / 2] = ur - vr;
                im[i + k + len / 2] = ui - vi;
                let next_r = cur_r * wr - cur_i * wi;
                cur_i = cur_r * wi + cur_i * wr;
                cur_r = next_r;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Power spectrum (dB-ish log magnitude) of a real signal, used by the
/// psychoacoustic model. Returns `n/2` bins.
pub fn power_spectrum(samples: &[f32]) -> Vec<f32> {
    let n = samples.len().next_power_of_two();
    let mut re = vec![0.0f32; n];
    let mut im = vec![0.0f32; n];
    re[..samples.len()].copy_from_slice(samples);
    // Hann window
    for (i, v) in re.iter_mut().enumerate().take(samples.len()) {
        let w = 0.5 - 0.5 * (2.0 * std::f32::consts::PI * i as f32 / samples.len() as f32).cos();
        *v *= w;
    }
    fft_radix2(&mut re, &mut im);
    (0..n / 2).map(|k| (re[k] * re[k] + im[k] * im[k] + 1e-12).ln()).collect()
}

/// A `taps`-tap windowed low-pass polyphase analysis: splits `input` into
/// `bands` decimated subband streams. Simplified (rectangular prototype
/// with triangular weighting) but structurally the MP2 filterbank.
pub fn polyphase_analyze(input: &[f32], bands: usize, out: &mut [f32]) {
    assert_eq!(out.len(), input.len(), "decimation keeps total sample count");
    assert!(bands >= 1 && input.len().is_multiple_of(bands));
    let per_band = input.len() / bands;
    for b in 0..bands {
        for k in 0..per_band {
            // modulated sum over the band's phase
            let mut acc = 0.0f32;
            for (t, &x) in input.iter().enumerate().skip(k * bands).take(bands) {
                let phase = ((2 * (t % bands) + 1) * (2 * b + 1)) as f32 * std::f32::consts::PI
                    / (4.0 * bands as f32);
                acc += x * phase.cos();
            }
            out[b * per_band + k] = acc / bands as f32;
        }
    }
}

/// Uniform mid-tread quantiser with `bits` bits, returning the code.
pub fn quantize(x: f32, scale: f32, bits: u32) -> i32 {
    let levels = (1i64 << bits.min(24)) as f32;
    let q = (x / scale * (levels / 2.0)).round();
    q.clamp(-levels / 2.0, levels / 2.0 - 1.0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut re = vec![0.0f32; 8];
        let mut im = vec![0.0f32; 8];
        re[0] = 1.0;
        fft_radix2(&mut re, &mut im);
        for k in 0..8 {
            assert!((re[k] - 1.0).abs() < 1e-5, "bin {k}: {}", re[k]);
            assert!(im[k].abs() < 1e-5);
        }
    }

    #[test]
    fn fft_of_single_tone_peaks_at_bin() {
        let n = 64;
        let f = 5;
        let mut re: Vec<f32> = (0..n)
            .map(|i| (2.0 * std::f32::consts::PI * f as f32 * i as f32 / n as f32).cos())
            .collect();
        let mut im = vec![0.0f32; n];
        fft_radix2(&mut re, &mut im);
        let mags: Vec<f32> = (0..n).map(|k| (re[k] * re[k] + im[k] * im[k]).sqrt()).collect();
        let peak = mags.iter().enumerate().take(n / 2).max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(peak, f);
    }

    #[test]
    fn fft_parseval() {
        // energy conservation up to the 1/N convention
        let n = 32;
        let sig: Vec<f32> = (0..n).map(|i| ((i * 7 + 3) % 11) as f32 / 11.0 - 0.5).collect();
        let mut re = sig.clone();
        let mut im = vec![0.0f32; n];
        fft_radix2(&mut re, &mut im);
        let time_energy: f32 = sig.iter().map(|x| x * x).sum();
        let freq_energy: f32 =
            (0..n).map(|k| re[k] * re[k] + im[k] * im[k]).sum::<f32>() / n as f32;
        assert!((time_energy - freq_energy).abs() < 1e-3, "{time_energy} vs {freq_energy}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut re = vec![0.0f32; 6];
        let mut im = vec![0.0f32; 6];
        fft_radix2(&mut re, &mut im);
    }

    #[test]
    fn polyphase_preserves_sample_count() {
        let input: Vec<f32> = (0..128).map(|i| (i as f32 * 0.1).sin()).collect();
        let mut out = vec![0.0f32; 128];
        polyphase_analyze(&input, 4, &mut out);
        assert!(out.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn power_spectrum_length() {
        let sig: Vec<f32> = (0..100).map(|i| (i as f32 * 0.3).sin()).collect();
        let spec = power_spectrum(&sig);
        assert_eq!(spec.len(), 64); // next_power_of_two(100)/2
        assert!(spec.iter().all(|v| v.is_finite()));
    }
}
