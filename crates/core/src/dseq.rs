//! Distributed sequences — the `dsequence` argument type.
//!
//! A [`DSequence<T>`] is the Rust mapping of the paper's
//! `dsequence<T, [length], [distribution]>`: a one-dimensional sequence
//! whose elements live in the address spaces of an SPMD program's
//! computing threads. Each computing thread holds one `DSequence` value
//! containing *its* local part plus the (replicated) distribution
//! template.
//!
//! Faithful to §2.2 of the paper:
//!
//! * collective methods ("it is assumed that most invocations of the
//!   methods on the sequence will be SPMD-style") take the thread's RTS
//!   endpoint; every thread must call them together,
//! * [`DSequence::set_len`]: "if a sequence is shrunk, the data above the
//!   length value will be discarded, if a sequence is lengthened, new
//!   elements will be added to the ownership of the computing thread
//!   which owned the last elements of the old sequence",
//! * [`DSequence::redistribute`] reshuffles elements to a new template,
//! * [`DSequence::get`] is `operator[]`: element access with location
//!   transparency (the owner broadcasts); out-of-range access is an
//!   error,
//! * [`DSequence::from_local`] is the conversion constructor: adopt
//!   locally-managed memory with no extra copy, deriving the template
//!   from the per-thread lengths,
//! * [`DSequence::local_data`] / [`DSequence::into_local`] convert back
//!   to the program's own memory management.

use crate::dist::DistTempl;
use crate::error::{PardisError, PardisResult};
use crate::probe::{self, BufId};
use bytes::Bytes;
use pardis_cdr::{CdrReader, CdrResult, CdrWriter};
use pardis_rts::Endpoint;

/// Element types a distributed sequence can carry.
///
/// The paper allows "any nondistributed type defined in IDL"; this trait
/// is implemented for the primitive types used by the evaluation
/// (`double` above all) and is open for generated code to implement for
/// user-defined types.
pub trait Elem: Clone + Send + Default + 'static {
    /// CDR type code of the element.
    fn typecode() -> pardis_cdr::TypeCode;
    /// Size of one element on the wire (CDR, primitive types only).
    fn wire_size() -> usize;
    /// Marshal a slice of elements.
    fn write_slice(w: &mut CdrWriter, v: &[Self]);
    /// Unmarshal `n` elements.
    fn read_slice(r: &mut CdrReader<'_>, n: usize, out: &mut Vec<Self>) -> CdrResult<()>;
    /// Native-order byte image for intra-machine (RTS) transport.
    fn to_native_bytes(v: &[Self]) -> Bytes;
    /// Rebuild elements from a native-order byte image.
    fn from_native_bytes(b: &[u8]) -> Vec<Self>;
}

impl Elem for f64 {
    fn typecode() -> pardis_cdr::TypeCode {
        pardis_cdr::TypeCode::Double
    }
    fn wire_size() -> usize {
        8
    }
    fn write_slice(w: &mut CdrWriter, v: &[Self]) {
        w.put_f64_slice(v);
    }
    fn read_slice(r: &mut CdrReader<'_>, n: usize, out: &mut Vec<Self>) -> CdrResult<()> {
        r.get_f64_slice(n, out)
    }
    fn to_native_bytes(v: &[Self]) -> Bytes {
        Bytes::copy_from_slice(pardis_cdr::byteswap::f64_slice_as_bytes(v))
    }
    fn from_native_bytes(b: &[u8]) -> Vec<Self> {
        let mut out = Vec::with_capacity(b.len() / 8);
        pardis_cdr::byteswap::bytes_to_f64(b, &mut out);
        out
    }
}

impl Elem for i32 {
    fn typecode() -> pardis_cdr::TypeCode {
        pardis_cdr::TypeCode::Long
    }
    fn wire_size() -> usize {
        4
    }
    fn write_slice(w: &mut CdrWriter, v: &[Self]) {
        w.put_i32_slice(v);
    }
    fn read_slice(r: &mut CdrReader<'_>, n: usize, out: &mut Vec<Self>) -> CdrResult<()> {
        r.get_i32_slice(n, out)
    }
    fn to_native_bytes(v: &[Self]) -> Bytes {
        Bytes::copy_from_slice(pardis_cdr::byteswap::i32_slice_as_bytes(v))
    }
    fn from_native_bytes(b: &[u8]) -> Vec<Self> {
        let mut out = Vec::with_capacity(b.len() / 4);
        pardis_cdr::byteswap::bytes_to_i32(b, &mut out);
        out
    }
}

impl Elem for u8 {
    fn typecode() -> pardis_cdr::TypeCode {
        pardis_cdr::TypeCode::Octet
    }
    fn wire_size() -> usize {
        1
    }
    fn write_slice(w: &mut CdrWriter, v: &[Self]) {
        w.put_bytes(v);
    }
    fn read_slice(r: &mut CdrReader<'_>, n: usize, out: &mut Vec<Self>) -> CdrResult<()> {
        out.extend_from_slice(r.take(n)?);
        Ok(())
    }
    fn to_native_bytes(v: &[Self]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
    fn from_native_bytes(b: &[u8]) -> Vec<Self> {
        b.to_vec()
    }
}

/// A distributed sequence as held by one computing thread.
#[derive(Debug, Clone, PartialEq)]
pub struct DSequence<T: Elem> {
    local: Vec<T>,
    templ: DistTempl,
    thread: usize,
    /// Optional IDL bound (`dsequence<double, 1024>`).
    bound: Option<usize>,
    /// Identity of this local buffer for the race analyzer.
    pub(crate) buf_id: BufId,
}

impl<T: Elem> DSequence<T> {
    /// Collectively create a sequence of `len` default elements with the
    /// given template (or uniform blockwise when `None`).
    pub fn new(rts: &Endpoint, len: usize, templ: Option<DistTempl>) -> PardisResult<DSequence<T>> {
        let templ = templ.unwrap_or_else(|| DistTempl::block(len, rts.size()));
        Self::validate_templ(rts, len, &templ)?;
        let local = vec![T::default(); templ.count(rts.rank())];
        Ok(DSequence {
            local,
            templ,
            thread: rts.rank(),
            bound: None,
            buf_id: BufId::fresh(),
        })
    }

    /// Conversion constructor: adopt this thread's locally managed data
    /// with no copy; the template is derived by all-gathering the local
    /// lengths. (The C++ mapping's `release` flag is subsumed by Rust
    /// ownership: the sequence owns `local` from here on.)
    pub fn from_local(rts: &Endpoint, local: Vec<T>) -> PardisResult<DSequence<T>> {
        let lens = rts.allgather_u64(local.len() as u64)?;
        let templ = DistTempl::from_counts(lens.into_iter().map(|l| l as usize).collect());
        Ok(DSequence {
            local,
            templ,
            thread: rts.rank(),
            bound: None,
            buf_id: BufId::fresh(),
        })
    }

    /// Non-collective constructor used by the ORB when it has already
    /// materialized the local part and template (argument delivery).
    pub fn from_parts(
        local: Vec<T>,
        templ: DistTempl,
        thread: usize,
    ) -> PardisResult<DSequence<T>> {
        if local.len() != templ.count(thread) {
            return Err(PardisError::BadDistArg(format!(
                "local part has {} elements, template assigns {} to thread {}",
                local.len(),
                templ.count(thread),
                thread
            )));
        }
        Ok(DSequence {
            local,
            templ,
            thread,
            bound: None,
            buf_id: BufId::fresh(),
        })
    }

    fn validate_templ(rts: &Endpoint, len: usize, templ: &DistTempl) -> PardisResult<()> {
        if templ.nthreads() != rts.size() {
            return Err(PardisError::BadDistArg(format!(
                "template names {} threads, program has {}",
                templ.nthreads(),
                rts.size()
            )));
        }
        if templ.len() != len {
            return Err(PardisError::BadDistArg(format!(
                "template covers {} elements, sequence has {}",
                templ.len(),
                len
            )));
        }
        Ok(())
    }

    /// Attach an IDL bound; operations that would exceed it fail.
    pub fn with_bound(mut self, bound: usize) -> PardisResult<DSequence<T>> {
        if self.len() > bound {
            return Err(PardisError::BadDistArg(format!(
                "sequence length {} exceeds bound {bound}",
                self.len()
            )));
        }
        self.bound = Some(bound);
        Ok(self)
    }

    /// Global length of the sequence.
    pub fn len(&self) -> usize {
        self.templ.len()
    }

    /// Whether the sequence is globally empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distribution template.
    pub fn templ(&self) -> &DistTempl {
        &self.templ
    }

    /// The owning thread index of this local view.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Number of locally owned elements (`local_length()` in the C++
    /// mapping).
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Borrow the locally owned elements (`local_data()`).
    pub fn local_data(&self) -> &[T] {
        probe::buffer_access(&self.buf_id, false, "local_data");
        &self.local
    }

    /// Mutably borrow the locally owned elements.
    pub fn local_data_mut(&mut self) -> &mut [T] {
        probe::buffer_access(&self.buf_id, true, "local_data_mut");
        &mut self.local
    }

    /// Give the local part back to the program's own memory management.
    pub fn into_local(self) -> Vec<T> {
        self.local
    }

    /// Global index range owned locally.
    pub fn local_range(&self) -> std::ops::Range<usize> {
        self.templ.range(self.thread)
    }

    /// Collective `operator[]`: every thread learns the value at global
    /// index `idx` (the owner broadcasts it).
    pub fn get(&self, rts: &Endpoint, idx: usize) -> PardisResult<T> {
        let (owner, local_idx) = self.templ.owner_of(idx)?;
        let data = if rts.rank() == owner {
            Some(T::to_native_bytes(std::slice::from_ref(
                &self.local[local_idx],
            )))
        } else {
            None
        };
        let bytes = rts.broadcast(owner, data)?;
        T::from_native_bytes(&bytes).pop().ok_or_else(|| {
            PardisError::Internal("element broadcast returned an empty payload".into())
        })
    }

    /// Collective element store: all threads pass the same `(idx, v)`;
    /// the owner records it.
    pub fn set(&mut self, _rts: &Endpoint, idx: usize, v: T) -> PardisResult<()> {
        let (owner, local_idx) = self.templ.owner_of(idx)?;
        if owner == self.thread {
            self.local[local_idx] = v;
        }
        Ok(())
    }

    /// Collective length change (`length(unsigned int)` in the mapping):
    /// shrink discards the tail, growth default-fills new elements owned
    /// by the previous last owner.
    pub fn set_len(&mut self, _rts: &Endpoint, new_len: usize) -> PardisResult<()> {
        if let Some(b) = self.bound {
            if new_len > b {
                return Err(PardisError::BadDistArg(format!(
                    "new length {new_len} exceeds bound {b}"
                )));
            }
        }
        let new_templ = self.templ.resized(new_len);
        self.local
            .resize(new_templ.count(self.thread), T::default());
        self.templ = new_templ;
        Ok(())
    }

    /// Collective redistribution to a new template (same total length).
    /// Elements move between threads with an all-to-all exchange.
    pub fn redistribute(&mut self, rts: &Endpoint, new_templ: DistTempl) -> PardisResult<()> {
        Self::validate_templ(rts, self.len(), &new_templ)?;
        if new_templ == self.templ {
            return Ok(());
        }
        probe::buffer_access(&self.buf_id, true, "redistribute");
        let my_off = self.templ.offset(self.thread);
        // Build one outgoing chunk per destination thread.
        let mut outgoing: Vec<Bytes> = vec![Bytes::new(); rts.size()];
        for (dst, range) in self.templ.transfers_to(self.thread, &new_templ) {
            let lo = range.start - my_off;
            let hi = range.end - my_off;
            outgoing[dst] = T::to_native_bytes(&self.local[lo..hi]);
        }
        let incoming = rts.alltoallv_bytes(outgoing)?;
        // Reassemble in source order: contiguous ownership means source
        // fragments arrive in ascending global order by source rank.
        let mut new_local = Vec::with_capacity(new_templ.count(self.thread));
        for chunk in &incoming {
            new_local.extend(T::from_native_bytes(chunk));
        }
        if new_local.len() != new_templ.count(self.thread) {
            return Err(PardisError::BadDistArg(format!(
                "redistribute produced {} local elements, expected {}",
                new_local.len(),
                new_templ.count(self.thread)
            )));
        }
        self.local = new_local;
        self.templ = new_templ;
        Ok(())
    }

    /// Collective evacuation onto a survivor set: the excluded threads
    /// give up every element, the survivors split the full length
    /// blockwise in rank order (see [`DistTempl::remap_onto`]). Values
    /// and total length are preserved.
    ///
    /// This is the graceful-degradation move for a rank the failure
    /// detector *suspects*: run it while the suspect can still
    /// participate in the exchange and its data survives the later
    /// confirmation. After a rank is confirmed dead its local part is
    /// unrecoverable — evacuation is proactive by design.
    pub fn redistribute_onto(&mut self, rts: &Endpoint, survivors: &[usize]) -> PardisResult<()> {
        let new_templ = self.templ.remap_onto(survivors)?;
        self.redistribute(rts, new_templ)
    }

    /// Collectively materialize the whole sequence on every thread
    /// (debug/verification helper, not a transfer path).
    pub fn to_global(&self, rts: &Endpoint) -> PardisResult<Vec<T>> {
        let chunks = rts.allgather_bytes(T::to_native_bytes(&self.local))?;
        let mut out = Vec::with_capacity(self.len());
        for c in &chunks {
            out.extend(T::from_native_bytes(c));
        }
        Ok(out)
    }
}

impl DSequence<f64> {
    /// Collectively expose the sequence through the **one-sided**
    /// run-time system interface, enabling non-collective element
    /// access from any thread.
    ///
    /// The paper's message-passing mapping forces SPMD-style collective
    /// calls on `operator[]` because it "cannot handle asynchronous
    /// access to an arbitrary context" (§2.2), and commits to a
    /// one-sided interface as future work (§2.3). [`ExposedSeq`] is that
    /// mapping: after `expose`, any single thread may read or write any
    /// element without the owner participating.
    ///
    /// The sequence moves into the window for the exposure epoch;
    /// [`ExposedSeq::into_seq`] (collective) recovers it.
    pub fn expose(self, rts: &Endpoint) -> PardisResult<ExposedSeq> {
        let DSequence {
            local,
            templ,
            thread,
            bound,
            ..
        } = self;
        let win = pardis_rts::Window::create(rts, local)?;
        Ok(ExposedSeq {
            win,
            templ,
            thread,
            bound,
        })
    }
}

/// A distributed sequence exposed for one-sided access (see
/// [`DSequence::expose`]).
#[derive(Debug, Clone)]
pub struct ExposedSeq {
    win: pardis_rts::Window,
    templ: DistTempl,
    thread: usize,
    bound: Option<usize>,
}

impl ExposedSeq {
    /// Global length.
    pub fn len(&self) -> usize {
        self.templ.len()
    }

    /// Whether the sequence is globally empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distribution template.
    pub fn templ(&self) -> &DistTempl {
        &self.templ
    }

    /// **Non-collective** element read: location-transparent
    /// `operator[]` backed by a one-sided get.
    pub fn get(&self, idx: usize) -> PardisResult<f64> {
        let (owner, local_idx) = self.templ.owner_of(idx)?;
        let v = self
            .win
            .get_one(owner, local_idx)
            .map_err(PardisError::from)?;
        probe::window_access(&self.win, owner, local_idx, 1, false);
        Ok(v)
    }

    /// **Non-collective** element write.
    pub fn put(&self, idx: usize, v: f64) -> PardisResult<()> {
        let (owner, local_idx) = self.templ.owner_of(idx)?;
        self.win
            .put(owner, local_idx, &[v])
            .map_err(PardisError::from)?;
        probe::window_access(&self.win, owner, local_idx, 1, true);
        Ok(())
    }

    /// **Non-collective** bulk read of `[start, start+len)`, spanning
    /// owners as needed.
    pub fn get_range(&self, start: usize, len: usize) -> PardisResult<Vec<f64>> {
        if start + len > self.len() {
            return Err(PardisError::BadDistArg(format!(
                "range [{start}, {}) beyond sequence length {}",
                start + len,
                self.len()
            )));
        }
        let mut out = Vec::with_capacity(len);
        let mut idx = start;
        while idx < start + len {
            let (owner, local_idx) = self.templ.owner_of(idx)?;
            let owner_end = self.templ.range(owner).end;
            let take = (start + len - idx).min(owner_end - idx);
            out.extend(
                self.win
                    .get(owner, local_idx, take)
                    .map_err(PardisError::from)?,
            );
            probe::window_access(&self.win, owner, local_idx, take, false);
            idx += take;
        }
        Ok(out)
    }

    /// Epoch boundary (collective): all one-sided operations issued
    /// before the fence are visible after it.
    pub fn fence(&self, rts: &Endpoint) {
        self.win.fence(rts);
        probe::window_fence(rts, &self.win, self.thread);
    }

    /// Collectively end the exposure and recover the sequence.
    pub fn into_seq(self, rts: &Endpoint) -> PardisResult<DSequence<f64>> {
        probe::window_free(rts, &self.win, self.thread);
        let local = self.win.free(rts);
        let mut seq = DSequence::from_parts(local, self.templ, self.thread)?;
        if let Some(b) = self.bound {
            seq = seq.with_bound(b)?;
        }
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardis_rts::Domain;

    #[test]
    fn clone_compares_equal_under_a_fresh_buffer_id() {
        let templ = DistTempl::from_counts(vec![2]);
        let s = DSequence::from_parts(vec![1.0f64, 2.0], templ, 0).unwrap();
        let c = s.clone();
        assert_eq!(c, s);
        assert_eq!(s.buf_id.share().tracked(), s.buf_id.tracked());
        // Instrumented, the clone owns fresh storage, tracked apart.
        if let (Some(a), Some(b)) = (s.buf_id.tracked(), c.buf_id.tracked()) {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn cloned_dist_arg_keeps_its_buffer_id() {
        let templ = DistTempl::from_counts(vec![2]);
        let s = DSequence::from_parts(vec![1.0f64, 2.0], templ.clone(), 0).unwrap();
        let arg = crate::request::DistArgSend {
            dir: crate::request::ArgDir::In,
            elem_size: 8,
            local: Bytes::new(),
            client_templ: templ.clone(),
            server_templ: templ,
            buf_id: s.buf_id.share(),
        };
        assert_eq!(arg.clone().buf_id.tracked(), s.buf_id.tracked());
    }

    #[test]
    fn new_default_blockwise() {
        let r = Domain::run(4, |ep| {
            let s = DSequence::<f64>::new(&ep, 10, None).unwrap();
            (s.local_len(), s.len(), s.local_range())
        });
        assert_eq!(r[0], (3, 10, 0..3));
        assert_eq!(r[1], (3, 10, 3..6));
        assert_eq!(r[2], (2, 10, 6..8));
        assert_eq!(r[3], (2, 10, 8..10));
    }

    #[test]
    fn from_local_derives_template() {
        let r = Domain::run(3, |ep| {
            let mine: Vec<f64> = vec![ep.rank() as f64; ep.rank() + 1];
            let s = DSequence::from_local(&ep, mine).unwrap();
            (s.len(), s.templ().counts().to_vec())
        });
        for (len, counts) in r {
            assert_eq!(len, 6);
            assert_eq!(counts, vec![1, 2, 3]);
        }
    }

    #[test]
    fn get_broadcasts_from_owner() {
        let r = Domain::run(3, |ep| {
            let mine: Vec<f64> = (0..4).map(|i| (ep.rank() * 4 + i) as f64).collect();
            let s = DSequence::from_local(&ep, mine).unwrap();
            // Index 9 lives on thread 2, local index 1 -> value 9.0
            s.get(&ep, 9).unwrap()
        });
        assert_eq!(r, vec![9.0, 9.0, 9.0]);
    }

    #[test]
    fn get_out_of_range_errors() {
        Domain::run(2, |ep| {
            let s = DSequence::<f64>::new(&ep, 4, None).unwrap();
            assert!(s.get(&ep, 4).is_err());
        });
    }

    #[test]
    fn set_then_get() {
        Domain::run(2, |ep| {
            let mut s = DSequence::<f64>::new(&ep, 6, None).unwrap();
            s.set(&ep, 5, 42.0).unwrap();
            assert_eq!(s.get(&ep, 5).unwrap(), 42.0);
            // Non-owners were untouched locally.
            if ep.rank() == 0 {
                assert!(s.local_data().iter().all(|&x| x == 0.0));
            }
        });
    }

    #[test]
    fn shrink_discards_tail() {
        Domain::run(3, |ep| {
            let mine: Vec<f64> = (0..3).map(|i| (ep.rank() * 3 + i) as f64).collect();
            let mut s = DSequence::from_local(&ep, mine).unwrap();
            s.set_len(&ep, 4).unwrap();
            assert_eq!(s.len(), 4);
            assert_eq!(s.templ().counts(), &[3, 1, 0]);
            let g = s.to_global(&ep).unwrap();
            assert_eq!(g, vec![0.0, 1.0, 2.0, 3.0]);
        });
    }

    #[test]
    fn grow_extends_last_owner_with_defaults() {
        Domain::run(2, |ep| {
            let mine = vec![1.0f64; 2];
            let mut s = DSequence::from_local(&ep, mine).unwrap();
            s.set_len(&ep, 7).unwrap();
            assert_eq!(s.templ().counts(), &[2, 5]);
            if ep.rank() == 1 {
                assert_eq!(s.local_data(), &[1.0, 1.0, 0.0, 0.0, 0.0]);
            }
        });
    }

    #[test]
    fn redistribute_preserves_contents() {
        Domain::run(4, |ep| {
            let s0 = DSequence::<f64>::new(&ep, 20, None).unwrap();
            let mut s = s0;
            // Fill with global indices.
            let off = s.local_range().start;
            for (i, x) in s.local_data_mut().iter_mut().enumerate() {
                *x = (off + i) as f64;
            }
            let want: Vec<f64> = (0..20).map(|i| i as f64).collect();
            assert_eq!(s.to_global(&ep).unwrap(), want);

            let new = DistTempl::proportional(20, &crate::dist::Proportions::new(vec![2, 4, 2, 4]));
            s.redistribute(&ep, new.clone()).unwrap();
            assert_eq!(s.templ(), &new);
            assert_eq!(s.local_len(), new.count(ep.rank()));
            assert_eq!(s.to_global(&ep).unwrap(), want);

            // And back to block.
            s.redistribute(&ep, DistTempl::block(20, 4)).unwrap();
            assert_eq!(s.to_global(&ep).unwrap(), want);
        });
    }

    #[test]
    fn redistribute_onto_evacuates_suspected_rank() {
        Domain::run(4, |ep| {
            let mut s = DSequence::<f64>::new(&ep, 10, None).unwrap();
            let off = s.local_range().start;
            for (i, x) in s.local_data_mut().iter_mut().enumerate() {
                *x = (off + i) as f64;
            }
            s.redistribute_onto(&ep, &[0, 1, 3]).unwrap();
            assert_eq!(s.len(), 10, "total length preserved");
            assert_eq!(s.templ().count(2), 0, "suspect owns nothing");
            let want: Vec<f64> = (0..10).map(|i| i as f64).collect();
            assert_eq!(s.to_global(&ep).unwrap(), want, "values preserved");
        });
    }

    #[test]
    fn redistribute_noop_is_cheap() {
        Domain::run(2, |ep| {
            let mut s = DSequence::<i32>::new(&ep, 8, None).unwrap();
            let t = s.templ().clone();
            s.redistribute(&ep, t).unwrap();
            assert_eq!(s.len(), 8);
        });
    }

    #[test]
    fn bound_enforced() {
        Domain::run(2, |ep| {
            let s = DSequence::<f64>::new(&ep, 4, None)
                .unwrap()
                .with_bound(8)
                .unwrap();
            let mut s = s;
            assert!(s.set_len(&ep, 8).is_ok());
            assert!(s.set_len(&ep, 9).is_err());
            // Constructor-time violation:
            let t = DSequence::<f64>::new(&ep, 4, None).unwrap().with_bound(3);
            assert!(t.is_err());
        });
    }

    #[test]
    fn from_parts_checks_length() {
        let t = DistTempl::block(10, 2);
        assert!(DSequence::<f64>::from_parts(vec![0.0; 5], t.clone(), 0).is_ok());
        assert!(DSequence::<f64>::from_parts(vec![0.0; 4], t, 0).is_err());
    }

    #[test]
    fn exposed_sequence_one_sided_access() {
        Domain::run(4, |ep| {
            let mut s = DSequence::<f64>::new(&ep, 20, None).unwrap();
            let off = s.local_range().start;
            for (i, x) in s.local_data_mut().iter_mut().enumerate() {
                *x = (off + i) as f64;
            }
            let ex = s.expose(&ep).unwrap();
            // Non-collective: only rank 1 reads and writes.
            if ep.rank() == 1 {
                assert_eq!(ex.get(17).unwrap(), 17.0);
                assert_eq!(
                    ex.get_range(3, 10).unwrap(),
                    (3..13).map(|i| i as f64).collect::<Vec<_>>()
                );
                ex.put(0, -1.0).unwrap();
            }
            ex.fence(&ep);
            // Visible everywhere after the fence.
            assert_eq!(ex.get(0).unwrap(), -1.0);
            let s = ex.into_seq(&ep).unwrap();
            if ep.rank() == 0 {
                assert_eq!(s.local_data()[0], -1.0);
            }
            assert_eq!(s.len(), 20);
        });
    }

    #[test]
    fn exposed_range_errors() {
        Domain::run(2, |ep| {
            let s = DSequence::<f64>::new(&ep, 6, None).unwrap();
            let ex = s.expose(&ep).unwrap();
            assert!(ex.get(6).is_err());
            assert!(ex.get_range(4, 3).is_err());
            ex.fence(&ep);
            let _ = ex.into_seq(&ep).unwrap();
        });
    }

    #[test]
    fn i32_and_u8_sequences() {
        Domain::run(2, |ep| {
            let mut si = DSequence::<i32>::new(&ep, 5, None).unwrap();
            si.set(&ep, 0, -7).unwrap();
            assert_eq!(si.get(&ep, 0).unwrap(), -7);
            let su = DSequence::<u8>::from_local(&ep, vec![ep.rank() as u8; 2]).unwrap();
            assert_eq!(su.to_global(&ep).unwrap(), vec![0, 0, 1, 1]);
        });
    }
}
