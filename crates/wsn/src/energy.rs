//! Energy models for the node simulation: the measured public-key costs
//! from the Cortex-M0+ model plus documented radio and symmetric-crypto
//! constants.

use ecc233::{Engine, Profile};
use koblitz::{order, Int};

/// Per-operation public-key energy for one implementation profile,
/// measured once on the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CryptoCosts {
    /// The measured profile.
    pub profile: Profile,
    /// Fixed-point multiplication kG, microjoules.
    pub kg_uj: f64,
    /// Random-point multiplication kP, microjoules.
    pub kp_uj: f64,
}

impl CryptoCosts {
    /// Runs one kG and one kP under `profile` and records their energy.
    pub fn measure(profile: Profile) -> CryptoCosts {
        let k = Int::from_hex(&"6b".repeat(29))
            .expect("valid hex")
            .mod_positive(&order());
        let engine = Engine::new(profile);
        let kg = engine.mul_g(&k).report.energy_uj();
        let kp = engine
            .mul_point(&koblitz::generator(), &k)
            .report
            .energy_uj();
        CryptoCosts {
            profile,
            kg_uj: kg,
            kp_uj: kp,
        }
    }

    /// Energy of one ECDH re-key from the node's side: generate an
    /// ephemeral key (kG) and derive the shared secret (kP).
    pub fn rekey_uj(&self) -> f64 {
        self.kg_uj + self.kp_uj
    }
}

/// Radio and symmetric-processing constants.
///
/// Defaults follow a typical 802.15.4 transceiver of the paper's era
/// (CC2420 class: ≈ 0.23 µJ per transmitted bit, ≈ 0.26 µJ per received
/// bit at 0 dBm) and charge symmetric crypto (AES-CTR + HMAC) at a flat
/// per-byte microcontroller cost derived from ≈ 60 cycles/byte at the
/// Table-3 average energy. These are *simulation constants*, documented
/// here rather than measured — the comparison between ECC profiles is
/// unaffected by their exact values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioModel {
    /// Energy to transmit one byte, microjoules.
    pub tx_uj_per_byte: f64,
    /// Energy to receive one byte, microjoules.
    pub rx_uj_per_byte: f64,
    /// Symmetric processing (encrypt + MAC) per byte, microjoules.
    pub symmetric_uj_per_byte: f64,
}

impl Default for RadioModel {
    fn default() -> Self {
        // 60 cyc/B priced at the default target's mean measured
        // pJ/cycle (the six Table-3 classes), so the symmetric cost
        // tracks the same registry the ECC measurements run under.
        let target = m0plus::target::default_target();
        let measured = [
            m0plus::InstrClass::Ldr,
            m0plus::InstrClass::Lsr,
            m0plus::InstrClass::Mul,
            m0plus::InstrClass::Lsl,
            m0plus::InstrClass::Eor,
            m0plus::InstrClass::Add,
        ];
        let mean_pj: f64 = measured
            .iter()
            .map(|&c| target.pj_per_cycle(c))
            .sum::<f64>()
            / measured.len() as f64;
        RadioModel {
            tx_uj_per_byte: 8.0 * 0.23,
            rx_uj_per_byte: 8.0 * 0.26,
            symmetric_uj_per_byte: 60.0 * mean_pj * 1e-6,
        }
    }
}

impl RadioModel {
    /// Energy to seal and transmit a frame of `payload` bytes
    /// (header 4 + payload + tag 16 on the wire).
    pub fn frame_uj(&self, payload: usize) -> f64 {
        let wire = 4 + payload + 16;
        wire as f64 * (self.tx_uj_per_byte + self.symmetric_uj_per_byte)
    }

    /// Energy for the radio half of one re-key: send our 31-byte
    /// compressed public key, receive the peer's.
    pub fn rekey_radio_uj(&self) -> f64 {
        31.0 * (self.tx_uj_per_byte + self.rx_uj_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_costs_are_in_the_papers_range() {
        let c = CryptoCosts::measure(Profile::ThisWorkAsm);
        assert!((15.0..30.0).contains(&c.kg_uj), "kG {} µJ", c.kg_uj);
        assert!((25.0..45.0).contains(&c.kp_uj), "kP {} µJ", c.kp_uj);
        assert!(c.kp_uj > c.kg_uj);
    }

    #[test]
    fn relic_costs_more() {
        let ours = CryptoCosts::measure(Profile::ThisWorkAsm);
        let relic = CryptoCosts::measure(Profile::RelicStyle);
        assert!(relic.rekey_uj() > 1.5 * ours.rekey_uj());
    }

    #[test]
    fn radio_model_scales_with_size() {
        let r = RadioModel::default();
        assert!(r.frame_uj(100) > r.frame_uj(10));
        // A telemetry frame costs single-digit to tens of µJ — the same
        // order as a point multiplication, which is exactly the paper's
        // point: PKC is no longer the dominant drain.
        let f = r.frame_uj(24);
        assert!((10.0..200.0).contains(&f), "frame {} µJ", f);
        assert!(r.rekey_radio_uj() > 0.0);
    }
}
