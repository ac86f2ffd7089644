//! OCR stress study: sweep scanner-noise severity and watch Stage I/II
//! quality fall — character error rate up, record recovery down, the
//! manual-review queue growing. Reproduces the failure mode the paper
//! hit with low-resolution scans (where Tesseract failed and the authors
//! transcribed by hand).
//!
//! ```text
//! cargo run --release --example ocr_stress
//! ```

use disengage::core::pipeline::OcrMode;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::ocr::NoiseModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("noise sweep over a 2% corpus (erosion = 6x salt, like a fading scan):\n");
    println!(
        "{:>8}  {:>8}  {:>10}  {:>10}  {:>8}  {:>12}",
        "salt", "erosion", "CER", "confidence", "recovery", "manual queue"
    );
    for step in 0..=6 {
        let salt = step as f64 * 0.004;
        let erosion = salt * 6.0;
        let noise = if step == 0 {
            NoiseModel::clean()
        } else {
            NoiseModel::new(salt, erosion)
        };
        for correct in [false, true] {
            let config = RunConfig::new()
                .with_corpus(CorpusConfig {
                    seed: 21,
                    scale: 0.02,
                })
                .with_ocr(OcrMode::Simulated { noise, correct })
                .with_ocr_seed(4);
            let outcome = RunSession::new(config).run()?;
            let stats = outcome.ocr.expect("simulated mode reports stats");
            println!(
                "{:>8.3}  {:>8.3}  {:>10.4}  {:>10.3}  {:>7.1}%  {:>6} lines{}",
                salt,
                erosion,
                stats.mean_cer,
                stats.mean_confidence,
                outcome.recovery_rate() * 100.0,
                outcome.parse_failures.len(),
                if correct {
                    "  (with dictionary correction)"
                } else {
                    ""
                }
            );
        }
    }
    println!(
        "\ndictionary post-correction recovers part of the loss — the same role the paper's \
         manual-transcription fallback plays."
    );
    Ok(())
}
