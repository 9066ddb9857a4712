//! Runtime analysis support (the `instrument` feature).
//!
//! Two concerns live here:
//!
//! * **Collective fingerprints** (finding PA101): before the collective
//!   part of an SPMD invocation runs, every computing thread hashes the
//!   observable shape of its call site — operation name, transfer mode,
//!   reply expectation, idempotence, and each distributed argument's
//!   direction, element size, distribution template, and total-length
//!   class. The threads agree on the hash via
//!   [`pardis_rts::verify::Fingerprint`] agreement; divergence surfaces
//!   as [`crate::PardisError::CollectiveMismatch`] instead of the
//!   silent deadlock the paper's SPMD contract would otherwise produce.
//!
//! * **Runtime findings** (PA103): hazards that are legal but
//!   suspicious — currently a [`crate::client::RetryPolicy`] attached
//!   to a non-idempotent request, which the policy silently declines to
//!   retry. Findings accumulate in a process-global sink drained by
//!   `pardis-analyze`.

use crate::request::{ArgDir, RequestSpec};
use pardis_net::giop::TransferMode;
use pardis_rts::verify::{fnv1a_extend, Fingerprint, FNV_OFFSET};
use std::sync::{Mutex, OnceLock};

/// Length class of a payload: 0 for empty, else 1 + floor(log2(len)).
/// Collectives only need lengths to agree coarsely — exact per-thread
/// counts are covered by the template hash.
pub fn len_class(len: usize) -> u8 {
    if len == 0 {
        0
    } else {
        (usize::BITS - len.leading_zeros()) as u8
    }
}

/// Fingerprint one rank's view of an invocation about to run
/// collectively.
pub fn fingerprint(spec: &RequestSpec, mode: TransferMode) -> Fingerprint {
    let mut h = FNV_OFFSET;
    h = fnv1a_extend(h, spec.operation.as_bytes());
    h = fnv1a_extend(
        h,
        &[
            (mode == TransferMode::MultiPort) as u8,
            spec.response_expected as u8,
            spec.idempotent as u8,
            spec.dist_args.len() as u8,
        ],
    );
    let mut classes = Vec::with_capacity(spec.dist_args.len());
    let mut templs: Vec<Vec<usize>> = Vec::with_capacity(spec.dist_args.len());
    for a in &spec.dist_args {
        let dir = match a.dir {
            ArgDir::In => 0u8,
            ArgDir::Out => 1,
            ArgDir::InOut => 2,
        };
        let class = len_class(a.client_templ.len());
        classes.push(class);
        templs.push(a.client_templ.counts().to_vec());
        h = fnv1a_extend(h, &[dir, a.elem_size as u8, class]);
        // The whole-machine layout both sides agreed to: divergent
        // redistribution templates hash differently here.
        for &c in a.client_templ.counts() {
            h = fnv1a_extend(h, &(c as u64).to_le_bytes());
        }
        for &c in a.server_templ.counts() {
            h = fnv1a_extend(h, &(c as u64).to_le_bytes());
        }
    }
    Fingerprint {
        hash: h,
        site: format!(
            "op `{}` mode={mode:?} reply={} args={} len_class={classes:?} templ={templs:?}",
            spec.operation,
            spec.response_expected as u8,
            spec.dist_args.len(),
        ),
    }
}

/// One runtime finding (codes PA101..; see DESIGN.md §9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeFinding {
    /// Stable code, e.g. `PA103`.
    pub code: &'static str,
    /// Human-readable description of the hazard.
    pub message: String,
}

fn sink() -> &'static Mutex<Vec<RuntimeFinding>> {
    static SINK: OnceLock<Mutex<Vec<RuntimeFinding>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// Record a finding (deduplicated by code + message).
pub fn record(code: &'static str, message: String) {
    let mut s = sink().lock().unwrap_or_else(|p| p.into_inner());
    if !s.iter().any(|f| f.code == code && f.message == message) {
        s.push(RuntimeFinding { code, message });
    }
}

/// Snapshot the recorded findings.
pub fn findings() -> Vec<RuntimeFinding> {
    sink().lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Clear the sink (between analyzer scenarios).
pub fn reset() {
    sink().lock().unwrap_or_else(|p| p.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistTempl;
    use crate::request::DistArgSend;
    use bytes::Bytes;

    fn spec_with(counts: Vec<usize>) -> RequestSpec {
        let t = DistTempl::from_counts(counts);
        let mut s = RequestSpec::simple("step");
        s.dist_args.push(DistArgSend {
            dir: ArgDir::InOut,
            elem_size: 8,
            local: Bytes::new(),
            client_templ: t.clone(),
            server_templ: t,
            buf_id: crate::probe::BufId::untracked(),
        });
        s
    }

    #[test]
    fn identical_call_sites_hash_equal() {
        let a = fingerprint(&spec_with(vec![2, 2]), TransferMode::Centralized);
        let b = fingerprint(&spec_with(vec![2, 2]), TransferMode::Centralized);
        assert_eq!(a.hash, b.hash);
    }

    #[test]
    fn op_mode_and_template_feed_the_hash() {
        let base = fingerprint(&spec_with(vec![2, 2]), TransferMode::Centralized);
        let other_mode = fingerprint(&spec_with(vec![2, 2]), TransferMode::MultiPort);
        assert_ne!(base.hash, other_mode.hash);
        let other_templ = fingerprint(&spec_with(vec![3, 1]), TransferMode::Centralized);
        assert_ne!(base.hash, other_templ.hash);
        let mut renamed = spec_with(vec![2, 2]);
        renamed.operation = "reset".into();
        assert_ne!(
            base.hash,
            fingerprint(&renamed, TransferMode::Centralized).hash
        );
    }

    #[test]
    fn site_names_the_operation() {
        let fp = fingerprint(&spec_with(vec![4]), TransferMode::Centralized);
        assert!(fp.site.contains("op `step`"), "{}", fp.site);
    }

    #[test]
    fn len_classes_are_coarse() {
        assert_eq!(len_class(0), 0);
        assert_eq!(len_class(1), 1);
        assert_eq!(len_class(1023), 10);
        assert_eq!(len_class(1024), 11);
        assert_eq!(len_class(1025), 11);
    }

    #[test]
    fn sink_records_and_dedupes() {
        reset();
        record("PA103", "retry without idempotence: op `x`".into());
        record("PA103", "retry without idempotence: op `x`".into());
        let f = findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "PA103");
        reset();
        assert!(findings().is_empty());
    }
}
