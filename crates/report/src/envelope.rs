//! Versioned JSON envelope around rendered artifacts.
//!
//! Every machine-readable report leaves the workspace wrapped in an
//! [`Envelope`]: a schema version, the experiment id, the data version of
//! the snapshot it was rendered from, the digest of the [`RunConfig`] that
//! produced it, and the [`Rendered`] payload. Both front-ends — `repro
//! --json` and the dcfail-serve daemon — emit envelopes through
//! [`Envelope::to_json`], so for equal inputs they emit identical bytes;
//! the serve golden tests pin that equality.

use crate::experiments::{ExperimentId, RunConfig};
use crate::runners::Rendered;
use serde::{Deserialize, Serialize};

/// Current envelope schema version. Bump when the envelope shape (not the
/// payload contents) changes incompatibly; consumers reject mismatches.
pub const ENVELOPE_SCHEMA_VERSION: u32 = 1;

/// A versioned, serializable wrapper around one rendered artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope {
    /// Envelope schema version ([`ENVELOPE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Which artifact the payload renders.
    pub experiment_id: ExperimentId,
    /// Monotonic version of the dataset snapshot the render saw. A one-shot
    /// CLI run is version 0; the serve daemon bumps it on every ingest swap.
    pub data_version: u64,
    /// Hex form of [`RunConfig::digest`] — `0x`-prefixed, zero-padded — so
    /// the value survives JSON number handling untouched.
    pub config_digest: String,
    /// The rendered artifact itself.
    pub payload: Rendered,
}

impl Envelope {
    /// Wraps a rendered artifact at the current schema version.
    #[must_use]
    pub fn new(id: ExperimentId, data_version: u64, config: &RunConfig, payload: Rendered) -> Self {
        Self {
            schema_version: ENVELOPE_SCHEMA_VERSION,
            experiment_id: id,
            data_version,
            config_digest: format!("{:#018x}", config.digest()),
            payload,
        }
    }

    /// Compact JSON encoding — the canonical wire form. Key order follows
    /// field declaration order (the vendored serde preserves it), so equal
    /// envelopes encode to byte-identical strings.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| {
            unreachable!("envelope serialization is infallible by construction: {e}")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope::new(
            ExperimentId::Fig2,
            7,
            &RunConfig::with_seed(42),
            Rendered {
                title: "t".into(),
                text: "body\n".into(),
                csv: Some("a,b\n1,2\n".into()),
            },
        )
    }

    #[test]
    fn envelope_roundtrips_and_is_deterministic() {
        let e = sample();
        let json = e.to_json();
        assert_eq!(json, sample().to_json(), "encoding must be deterministic");
        let back: Envelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        assert!(json.starts_with("{\"schema_version\":1,"));
        assert!(json.contains("\"experiment_id\":\"fig2\""));
        assert!(json.contains("\"config_digest\":\"0x"));
    }

    #[test]
    fn a_payload_without_csv_round_trips_and_the_seed_keys_the_digest() {
        let rendered = Rendered {
            title: "t".into(),
            text: "x".into(),
            csv: None,
        };
        let e = Envelope::new(ExperimentId::Table1, 0, &RunConfig::with_seed(1), rendered);
        let back: Envelope = serde_json::from_str(&e.to_json()).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.payload.csv, None);
        let other = Envelope::new(
            ExperimentId::Table1,
            0,
            &RunConfig::with_seed(2),
            e.payload.clone(),
        );
        assert_ne!(other.config_digest, e.config_digest);
    }

    #[test]
    fn config_digest_is_hex_padded() {
        let e = sample();
        assert_eq!(e.config_digest.len(), 18);
        assert!(e.config_digest.starts_with("0x"));
    }
}
