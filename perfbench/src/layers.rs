//! Direct calls into the lower layers' public functions, sized by the
//! workload, for the traced run: one fabric datagram (`pardis-net`), the
//! RTS collectives the ORB uses (`pardis-rts`), and CDR slice encoding
//! and decoding (`pardis-cdr`).

use crate::stats::{median, Metrics};
use crate::workload::{seeded_data, Workload, CLIENT_THREADS};
use bytes::Bytes;
use pardis_cdr::{CdrReader, CdrWriter, Endian};
use pardis_core::World;
use pardis_net::LinkSpec;
use pardis_rts::{Domain, Endpoint, ReduceOp};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time `f` repeatedly until `budget` is spent (at least 5 samples);
/// returns the median sample in microseconds.
fn median_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let stop = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 5 || Instant::now() < stop {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&mut samples)
}

/// `Host::send_to` followed by `PortRecv::recv` of one datagram the size
/// of the workload's largest message, on an unlimited link.
fn datagram_us(w: &Workload, budget: Duration) -> f64 {
    let world = World::new(LinkSpec::unlimited());
    let a = world.fabric().add_host("a");
    let b = world.fabric().add_host("b");
    let port = b.open_port();
    let payload = Bytes::from(vec![0x5au8; w.message_bytes()]);
    median_us(budget, || {
        a.send_to(b.id(), port.port(), payload.clone())
            .expect("send datagram");
        black_box(port.recv().expect("receive datagram"));
    })
}

/// The RTS collectives, each timed on both ranks of a 2-rank domain
/// after an untimed agreement round; a sample is the slower rank's time.
fn collectives(w: &Workload, budget: Duration) -> [(&'static str, f64); 5] {
    const OPS: [&str; 5] = ["broadcast", "gather", "scatterv", "allreduce", "barrier"];
    let block = Bytes::from(vec![0xa5u8; 8 * w.client_block_len()]);
    let per_op = budget / OPS.len() as u32;
    let run = |ep: Endpoint| -> Vec<Vec<f64>> {
        let root = ep.rank() == 0;
        OPS.iter()
            .map(|op| {
                let stop = Instant::now() + per_op;
                let mut samples = Vec::new();
                loop {
                    let go = root && (samples.len() < 5 || Instant::now() < stop);
                    let go = ep
                        .allreduce_scalar(if go { 1.0 } else { 0.0 }, ReduceOp::Max)
                        .expect("agreement");
                    if go == 0.0 {
                        break samples;
                    }
                    let t0 = Instant::now();
                    match *op {
                        "broadcast" => {
                            black_box(
                                ep.broadcast(0, root.then(|| block.clone()))
                                    .expect("broadcast"),
                            );
                        }
                        "gather" => {
                            black_box(ep.gather_bytes(0, block.clone()).expect("gather"));
                        }
                        "scatterv" => {
                            let chunks = root.then(|| vec![block.clone(); CLIENT_THREADS]);
                            black_box(ep.scatterv_bytes(0, chunks).expect("scatterv"));
                        }
                        "allreduce" => {
                            black_box(ep.allreduce_f64(&[1.0], ReduceOp::Sum).expect("allreduce"));
                        }
                        _ => ep.barrier(),
                    }
                    samples.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            })
            .collect()
    };
    let per_rank: Vec<Vec<Vec<f64>>> = std::thread::scope(|s| {
        let handles: Vec<_> = Domain::new(CLIENT_THREADS)
            .into_iter()
            .map(|ep| s.spawn(|| run(ep)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("collective thread"))
            .collect()
    });
    let mut out = [("", 0.0); 5];
    for (i, op) in OPS.iter().enumerate() {
        let mut slowest: Vec<f64> = per_rank[0][i]
            .iter()
            .zip(&per_rank[1][i])
            .map(|(a, b)| a.max(*b))
            .collect();
        out[i] = (*op, median(&mut slowest));
    }
    out
}

/// CDR throughput on one client thread's block, in MB/s: encode and
/// decode in native order, and both again in the other byte order
/// (per-word swapping; counted as bytes encoded plus bytes decoded).
fn cdr(w: &Workload, seed: u64, budget: Duration) -> [(&'static str, f64); 3] {
    let block = seeded_data(seed, w.client_block_len());
    let bytes = 8 * block.len();
    // Repeat small blocks so one sample is long enough to time.
    let reps = (256 * 1024 / bytes).max(1);
    let per = budget / 3;
    let native = Endian::native();
    let encode = |endian: Endian| {
        let mut w = CdrWriter::with_capacity(endian, bytes + 8);
        w.put_f64_slice(&block);
        w.into_bytes()
    };
    let decode = |buf: &[u8], endian: Endian, out: &mut Vec<f64>| {
        out.clear();
        CdrReader::new(buf, endian)
            .get_f64_slice(block.len(), out)
            .expect("decode the block just encoded");
    };
    let mbps = |bytes_per_sample: usize, us: f64| bytes_per_sample as f64 / us;

    let enc_us = median_us(per, || {
        for _ in 0..reps {
            black_box(encode(black_box(native)));
        }
    });
    let wire = encode(native);
    let mut out = Vec::with_capacity(block.len());
    let dec_us = median_us(per, || {
        for _ in 0..reps {
            decode(black_box(&wire), native, &mut out);
            black_box(&out);
        }
    });
    let swapped = native.swapped();
    let swap_us = median_us(per, || {
        for _ in 0..reps {
            let wire = encode(black_box(swapped));
            decode(&wire, swapped, &mut out);
            black_box(&out);
        }
    });
    [
        ("cdr.encode_MBps", mbps(bytes * reps, enc_us)),
        ("cdr.decode_MBps", mbps(bytes * reps, dec_us)),
        ("cdr.swap_MBps", mbps(2 * bytes * reps, swap_us)),
    ]
}

/// Run every lower-layer probe within `budget` and add its metrics.
pub fn measure(w: &Workload, seed: u64, budget: Duration, out: &mut Metrics) {
    out.push("net.datagram_us", datagram_us(w, budget / 5), "us");
    for (op, us) in collectives(w, budget * 3 / 5) {
        out.push(format!("rts.{op}_us"), us, "us");
    }
    for (name, v) in cdr(w, seed, budget / 5) {
        out.push(name, v, "MB/s");
    }
}
