//! Checkpointing: a small, dependency-free binary format for saving and
//! restoring training state — the host-side artifact that `Weight_load`
//! (Sec. 5.2) programs into the morphable arrays.
//!
//! Two formats share this module:
//!
//! * **PLW1** (legacy, parameters only, little-endian):
//!   `b"PLW1"` · `u32` tensor count · per tensor: `u32` rank, `u32×rank`
//!   dims, `f32×numel` data. Weights and biases alternate in layer order.
//! * **PLW2** (full training state): `b"PLW2"` · `u32` section count · per
//!   section: `[u8;4]` tag · `u32` payload length · payload · `u32` CRC32
//!   (IEEE) of tag ‖ payload (PNG-style, so a corrupted tag cannot
//!   masquerade as an unknown section). Known tags: `TNSR` (the PLW1
//!   tensor body),
//!   `OPTS` (optimizer velocity buffers), `RNGS` (shuffle seed), `CURS`
//!   (epoch/image cursor + per-epoch loss history), `WEAR` (an opaque
//!   device-state blob — wear counters, live fault map and repair-ladder
//!   state captured by `ReramMlp::device_state`). Unknown tags are
//!   skipped, so the format is forward-extensible; every section is
//!   integrity-checked, so a torn or bit-flipped blob fails loudly with
//!   [`DecodeError::BadChecksum`] instead of resuming from garbage.
//!
//! The PLW2 container is also usable standalone via [`save_sections`] /
//! [`load_sections`] for sidecar artifacts (e.g. the wear-out campaign's
//! kill/resume snapshots) that carry their own tags.
//!
//! [`load_checkpoint`] accepts both formats (a PLW1 blob yields an empty
//! [`CheckpointState`]), and every decoder caps its allocations by the
//! bytes actually present, so corrupt length fields cannot OOM the host.

use crate::network::Network;
use pipelayer_tensor::Tensor;
use std::fmt;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 4] = b"PLW1";
const MAGIC2: &[u8; 4] = b"PLW2";

/// Errors while decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not a PLW1/PLW2 blob.
    BadMagic,
    /// Blob ended mid-field (or a length field exceeds the blob).
    Truncated,
    /// A PLW2 section's payload does not match its stored CRC32.
    BadChecksum,
    /// Bytes remain past the declared content (e.g. a corrupted section
    /// or tensor count silently dropping trailing sections).
    TrailingBytes,
    /// A tensor header declares no dimensions or a zero dimension.
    DegenerateShape,
    /// Tensor shape disagrees with the target network.
    ShapeMismatch {
        /// Index of the offending tensor.
        index: usize,
    },
    /// Checkpoint holds a different number of tensors than the network.
    CountMismatch {
        /// Tensors in the blob.
        found: usize,
        /// Tensors the network needs.
        expected: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a PLW1/PLW2 checkpoint"),
            DecodeError::Truncated => write!(f, "checkpoint truncated"),
            DecodeError::BadChecksum => write!(f, "checkpoint section failed its CRC32 check"),
            DecodeError::TrailingBytes => {
                write!(f, "checkpoint has bytes past its declared content")
            }
            DecodeError::DegenerateShape => {
                write!(f, "checkpoint tensor has no dimensions or a zero dimension")
            }
            DecodeError::ShapeMismatch { index } => {
                write!(f, "tensor {index} shape mismatch")
            }
            DecodeError::CountMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint has {found} tensors, network needs {expected}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// CRC32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0u32;
    while i < 256 {
        let mut c = i;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i as usize] = c;
        i += 1;
    }
    table
};

fn crc32_feed(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 checksum of `data` (IEEE; the ZIP/PNG variant).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_feed(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Section checksum: CRC32 over tag ‖ payload, as PNG chunks do — a bit
/// flip in the tag fails the check instead of skipping the section.
fn section_crc(tag: &[u8; 4], payload: &[u8]) -> u32 {
    crc32_feed(crc32_feed(0xFFFF_FFFF, tag), payload) ^ 0xFFFF_FFFF
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, then rename over the target — a reader never observes a torn
/// checkpoint, and a crash mid-write leaves the previous file intact.
///
/// # Errors
///
/// Any I/O error from create/write/sync/rename (the temp file is left
/// behind for post-mortem in that case).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Length/count fields are `u32` on the wire; an impossible >4G value
/// saturates (and then fails to round-trip) instead of silently wrapping.
fn len_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

fn push_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.extend(len_u32(t.dims().len()).to_le_bytes());
    for &d in t.dims() {
        out.extend(len_u32(d).to_le_bytes());
    }
    for &v in t.as_slice() {
        out.extend(v.to_le_bytes());
    }
}

/// The PLW1 body shared by both formats: tensor count + tensors.
fn params_body(net: &mut Network) -> Vec<u8> {
    let tensors: Vec<Tensor> = net
        .layers_mut()
        .iter_mut()
        .filter_map(|l| l.params_mut())
        .flat_map(|p| [p.weight.clone(), p.bias.clone()])
        .collect();
    let mut out = Vec::new();
    out.extend(len_u32(tensors.len()).to_le_bytes());
    for t in &tensors {
        push_tensor(&mut out, t);
    }
    out
}

/// Serialises every parameter tensor of `net` (weights and biases, layer
/// order) into a legacy PLW1 checkpoint blob.
pub fn save_params(net: &mut Network) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend(MAGIC);
    out.extend(params_body(net));
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Decodes one tensor, with every allocation bounded by the bytes actually
/// left in the blob — a corrupt rank/dim field fails with `Truncated`
/// instead of attempting a giant allocation, and a rank-0 or zero-dimension
/// header with `DegenerateShape` instead of reaching `Shape::new`'s asserts.
fn decode_tensor(r: &mut Reader) -> Result<Tensor, DecodeError> {
    let rank = r.u32()? as usize;
    if rank > r.remaining() / 4 {
        return Err(DecodeError::Truncated);
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(r.u32()? as usize);
    }
    let numel = dims
        .iter()
        .try_fold(1usize, |a, &d| a.checked_mul(d))
        .ok_or(DecodeError::Truncated)?;
    if numel > r.remaining() / 4 {
        return Err(DecodeError::Truncated);
    }
    let mut data = Vec::with_capacity(numel);
    for _ in 0..numel {
        data.push(r.f32()?);
    }
    Tensor::try_from_vec(&dims, data).ok_or(DecodeError::DegenerateShape)
}

fn decode_tensors(r: &mut Reader) -> Result<Vec<Tensor>, DecodeError> {
    let count = r.u32()? as usize;
    if count > r.remaining() / 4 {
        return Err(DecodeError::Truncated);
    }
    let mut tensors = Vec::with_capacity(count);
    for _ in 0..count {
        tensors.push(decode_tensor(r)?);
    }
    Ok(tensors)
}

/// Validates shapes against `net` and commits; the network is untouched on
/// error.
fn apply_tensors(net: &mut Network, tensors: Vec<Tensor>) -> Result<(), DecodeError> {
    let expected = net
        .layers_mut()
        .iter_mut()
        .filter(|l| l.param_count() > 0)
        .count()
        * 2;
    if tensors.len() != expected {
        return Err(DecodeError::CountMismatch {
            found: tensors.len(),
            expected,
        });
    }
    {
        // The count check above guarantees the iterator yields a (weight,
        // bias) pair per parameterised layer; a `None` here would mean that
        // invariant broke, and reporting it as a mismatch beats panicking.
        let mut it = tensors.iter();
        let mut index = 0usize;
        for layer in net.layers_mut() {
            if let Some(p) = layer.params_mut() {
                match it.next() {
                    Some(w) if w.dims() == p.weight.dims() => {}
                    _ => return Err(DecodeError::ShapeMismatch { index }),
                }
                index += 1;
                match it.next() {
                    Some(b) if b.dims() == p.bias.dims() => {}
                    _ => return Err(DecodeError::ShapeMismatch { index }),
                }
                index += 1;
            }
        }
    }
    let mut it = tensors.into_iter();
    for layer in net.layers_mut() {
        if let Some(p) = layer.params_mut() {
            if let (Some(w), Some(b)) = (it.next(), it.next()) {
                *p.weight = w;
                *p.bias = b;
            }
        }
    }
    Ok(())
}

/// Restores a checkpoint produced by [`save_params`] (or the parameters of
/// a [`save_checkpoint`] blob) into `net`.
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input or mismatched architecture; the
/// network is left unmodified on error.
pub fn load_params(net: &mut Network, bytes: &[u8]) -> Result<(), DecodeError> {
    if bytes.len() >= 4 && &bytes[..4] == MAGIC2 {
        return load_checkpoint(net, bytes).map(|_| ());
    }
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let tensors = decode_tensors(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes);
    }
    apply_tensors(net, tensors)
}

/// Where a resumable training run stood when the checkpoint was taken.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCursor {
    /// Epoch in progress (== total epochs when training completed).
    pub epoch: u32,
    /// Images consumed within that epoch (always a batch boundary).
    pub images_done: u64,
    /// Running loss sum of the partial epoch.
    pub partial_loss_sum: f32,
    /// Batches behind `partial_loss_sum`.
    pub partial_batches: u32,
    /// Mean losses of the completed epochs.
    pub epoch_losses: Vec<f32>,
}

/// Everything beyond the parameters that a PLW2 checkpoint carries.
#[derive(Debug, Clone, Default)]
pub struct CheckpointState {
    /// Seed of the epoch-shuffle RNG stream.
    pub shuffle_seed: u64,
    /// Training-progress cursor (`None` for a parameters-only blob).
    pub cursor: Option<TrainCursor>,
    /// Optimizer velocity buffers, two entries (weight, bias) per
    /// parameterised layer (`None` when training ran plain SGD).
    pub velocities: Option<Vec<Option<Tensor>>>,
    /// Opaque device-state blob (wear counters, live fault map,
    /// repair-ladder state — the bytes `ReramMlp::device_state` produced),
    /// carried verbatim in a `WEAR` section. `None` when the run has no
    /// wearing device attached.
    pub wear: Option<Vec<u8>>,
}

fn push_section(out: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    out.extend(tag);
    out.extend(len_u32(payload.len()).to_le_bytes());
    out.extend(payload);
    out.extend(section_crc(tag, payload).to_le_bytes());
}

/// Serialises `net`'s parameters plus the full training state into a PLW2
/// blob.
pub fn save_checkpoint(net: &mut Network, state: &CheckpointState) -> Vec<u8> {
    let mut sections: Vec<([u8; 4], Vec<u8>)> = vec![(*b"TNSR", params_body(net))];
    if let Some(vel) = &state.velocities {
        let mut p = Vec::new();
        p.extend(len_u32(vel.len()).to_le_bytes());
        for v in vel {
            match v {
                Some(t) => {
                    p.push(1);
                    push_tensor(&mut p, t);
                }
                None => p.push(0),
            }
        }
        sections.push((*b"OPTS", p));
    }
    sections.push((*b"RNGS", state.shuffle_seed.to_le_bytes().to_vec()));
    if let Some(c) = &state.cursor {
        let mut p = Vec::new();
        p.extend(c.epoch.to_le_bytes());
        p.extend(c.images_done.to_le_bytes());
        p.extend(c.partial_loss_sum.to_le_bytes());
        p.extend(c.partial_batches.to_le_bytes());
        p.extend(len_u32(c.epoch_losses.len()).to_le_bytes());
        for &l in &c.epoch_losses {
            p.extend(l.to_le_bytes());
        }
        sections.push((*b"CURS", p));
    }
    if let Some(w) = &state.wear {
        sections.push((*b"WEAR", w.clone()));
    }
    save_sections(&sections)
}

/// One PLW2 section: a four-byte tag and its payload.
pub type Section = ([u8; 4], Vec<u8>);

/// Frames arbitrary `(tag, payload)` sections into a standalone PLW2
/// container (magic · section count · CRC-protected sections). The
/// checkpoint writer uses this internally; sidecar artifacts (device-state
/// snapshots, campaign cursors) use it directly with their own tags.
pub fn save_sections(sections: &[Section]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend(MAGIC2);
    out.extend(len_u32(sections.len()).to_le_bytes());
    for (tag, payload) in sections {
        push_section(&mut out, tag, payload);
    }
    out
}

/// Parses a PLW2 container back into its `(tag, payload)` sections,
/// CRC-checking every one. Tags are returned verbatim (no known-tag
/// filtering) in on-wire order.
///
/// # Errors
///
/// [`DecodeError::BadMagic`] for non-PLW2 input, [`DecodeError::Truncated`]
/// when a length field runs past the blob, [`DecodeError::BadChecksum`] on
/// any CRC mismatch, [`DecodeError::TrailingBytes`] when bytes remain past
/// the declared section count.
pub fn load_sections(bytes: &[u8]) -> Result<Vec<Section>, DecodeError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC2 {
        return Err(DecodeError::BadMagic);
    }
    let nsec = r.u32()? as usize;
    let mut sections = Vec::new();
    for _ in 0..nsec {
        let tag = r.take(4)?;
        let tag: [u8; 4] = [tag[0], tag[1], tag[2], tag[3]];
        let len = r.u32()? as usize;
        let payload = r.take(len)?;
        let stored = r.u32()?;
        if section_crc(&tag, payload) != stored {
            return Err(DecodeError::BadChecksum);
        }
        sections.push((tag, payload.to_vec()));
    }
    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(sections)
}

fn decode_velocities(r: &mut Reader) -> Result<Vec<Option<Tensor>>, DecodeError> {
    let count = r.u32()? as usize;
    if count > r.remaining() {
        return Err(DecodeError::Truncated);
    }
    let mut vel = Vec::with_capacity(count);
    for _ in 0..count {
        let flag = r.take(1)?[0];
        vel.push(if flag != 0 {
            Some(decode_tensor(r)?)
        } else {
            None
        });
    }
    Ok(vel)
}

fn decode_cursor(r: &mut Reader) -> Result<TrainCursor, DecodeError> {
    let epoch = r.u32()?;
    let images_done = r.u64()?;
    let partial_loss_sum = r.f32()?;
    let partial_batches = r.u32()?;
    let n = r.u32()? as usize;
    if n > r.remaining() / 4 {
        return Err(DecodeError::Truncated);
    }
    let mut epoch_losses = Vec::with_capacity(n);
    for _ in 0..n {
        epoch_losses.push(r.f32()?);
    }
    Ok(TrainCursor {
        epoch,
        images_done,
        partial_loss_sum,
        partial_batches,
        epoch_losses,
    })
}

/// Restores a PLW2 (or legacy PLW1) checkpoint into `net` and returns the
/// training state it carried (empty for PLW1).
///
/// Every PLW2 section is CRC-checked before any of it is applied; unknown
/// section tags are skipped for forward compatibility.
///
/// # Errors
///
/// Any [`DecodeError`]; the network is left unmodified on error.
pub fn load_checkpoint(net: &mut Network, bytes: &[u8]) -> Result<CheckpointState, DecodeError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let magic = r.take(4)?;
    if magic == MAGIC {
        let tensors = decode_tensors(&mut r)?;
        if r.remaining() != 0 {
            return Err(DecodeError::TrailingBytes);
        }
        apply_tensors(net, tensors)?;
        return Ok(CheckpointState::default());
    }
    if magic != MAGIC2 {
        return Err(DecodeError::BadMagic);
    }
    let nsec = r.u32()? as usize;
    let mut state = CheckpointState::default();
    let mut tensors = None;
    for _ in 0..nsec {
        let tag = r.take(4)?;
        let tag: [u8; 4] = [tag[0], tag[1], tag[2], tag[3]];
        let len = r.u32()? as usize;
        let payload = r.take(len)?;
        let stored = r.u32()?;
        if section_crc(&tag, payload) != stored {
            return Err(DecodeError::BadChecksum);
        }
        let mut pr = Reader {
            buf: payload,
            pos: 0,
        };
        match &tag {
            b"TNSR" => tensors = Some(decode_tensors(&mut pr)?),
            b"OPTS" => state.velocities = Some(decode_velocities(&mut pr)?),
            b"RNGS" => state.shuffle_seed = pr.u64()?,
            b"CURS" => state.cursor = Some(decode_cursor(&mut pr)?),
            b"WEAR" => state.wear = Some(payload.to_vec()),
            _ => {} // unknown section: forward-compatible skip
        }
    }
    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes);
    }
    let tensors = tensors.ok_or(DecodeError::Truncated)?;
    apply_tensors(net, tensors)?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use pipelayer_tensor::Tensor;

    #[test]
    fn roundtrip_preserves_predictions() {
        let mut a = zoo::mnist_a(31);
        let blob = save_params(&mut a);
        let mut b = zoo::mnist_a(99); // different init
        let x = Tensor::from_fn(&[1, 28, 28], |i| ((i[1] + i[2]) as f32 * 0.03).sin().abs());
        assert_ne!(format!("{:?}", a.infer(&x)), format!("{:?}", b.infer(&x)));
        load_params(&mut b, &blob).expect("load");
        assert!(a.infer(&x).allclose(&b.infer(&x), 0.0));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut net = zoo::mnist_a(1);
        assert_eq!(load_params(&mut net, b"nope"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn rejects_truncation() {
        let mut net = zoo::mnist_a(2);
        let mut blob = save_params(&mut net);
        blob.truncate(blob.len() / 2);
        assert_eq!(load_params(&mut net, &blob), Err(DecodeError::Truncated));
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let mut a = zoo::mnist_a(3);
        let blob = save_params(&mut a);
        let mut c = zoo::mnist_c(3);
        match load_params(&mut c, &blob) {
            Err(DecodeError::CountMismatch { .. }) | Err(DecodeError::ShapeMismatch { .. }) => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn error_leaves_network_intact() {
        let mut net = zoo::mnist_a(4);
        let x = Tensor::ones(&[1, 28, 28]);
        let before = net.infer(&x);
        let mut blob = save_params(&mut net);
        blob.truncate(blob.len() - 1);
        let _ = load_params(&mut net, &blob);
        assert!(net.infer(&x).allclose(&before, 0.0));
    }

    #[test]
    fn format_is_compact() {
        let mut net = zoo::mnist_a(5);
        let blob = save_params(&mut net);
        // 79,510 params × 4 bytes + small header/shape overhead.
        let payload = net.param_count() * 4;
        assert!(blob.len() >= payload && blob.len() < payload + 128);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn full_state() -> CheckpointState {
        CheckpointState {
            shuffle_seed: 0xD1CE,
            cursor: Some(TrainCursor {
                epoch: 2,
                images_done: 48,
                partial_loss_sum: 1.25,
                partial_batches: 3,
                epoch_losses: vec![0.9, 0.7],
            }),
            velocities: Some(vec![
                Some(Tensor::full(&[2, 3], 0.5)),
                None,
                Some(Tensor::full(&[4], -0.25)),
                None,
            ]),
            wear: Some(vec![0xDE, 0xAD, 0x01, 0x02, 0x03]),
        }
    }

    #[test]
    fn plw2_roundtrips_full_training_state() {
        let mut a = zoo::mnist_a(41);
        let state = full_state();
        let blob = save_checkpoint(&mut a, &state);
        let mut b = zoo::mnist_a(77);
        let got = load_checkpoint(&mut b, &blob).expect("load");
        let x = Tensor::ones(&[1, 28, 28]);
        assert!(a.infer(&x).allclose(&b.infer(&x), 0.0));
        assert_eq!(got.shuffle_seed, state.shuffle_seed);
        assert_eq!(got.cursor, state.cursor);
        assert_eq!(got.wear, state.wear, "WEAR blob must ride along verbatim");
        let (sv, gv) = (state.velocities.unwrap(), got.velocities.unwrap());
        assert_eq!(sv.len(), gv.len());
        for (s, g) in sv.iter().zip(&gv) {
            match (s, g) {
                (Some(s), Some(g)) => assert!(s.allclose(g, 0.0)),
                (None, None) => {}
                other => panic!("velocity slot mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn plw1_blobs_still_decode_under_the_plw2_loader() {
        let mut a = zoo::mnist_a(42);
        let blob = save_params(&mut a);
        let mut b = zoo::mnist_a(9);
        let state = load_checkpoint(&mut b, &blob).expect("PLW1 must load");
        assert!(state.cursor.is_none());
        assert!(state.velocities.is_none());
        assert!(state.wear.is_none());
        let x = Tensor::ones(&[1, 28, 28]);
        assert!(a.infer(&x).allclose(&b.infer(&x), 0.0));
    }

    #[test]
    fn bit_flip_anywhere_is_caught() {
        let mut a = zoo::mnist_a(43);
        let blob = save_checkpoint(&mut a, &full_state());
        // Flip a bit inside the tensor payload (past magic + section count
        // + tag + len, well into TNSR data).
        let mut bad = blob.clone();
        bad[200] ^= 0x10;
        let mut b = zoo::mnist_a(1);
        assert_eq!(
            load_checkpoint(&mut b, &bad).err(),
            Some(DecodeError::BadChecksum)
        );
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let mut a = zoo::mnist_a(44);
        let mut blob = save_checkpoint(&mut a, &CheckpointState::default());
        // Append an unknown section and bump the section count.
        let payload = b"future data";
        push_section(&mut blob, b"XYZW", payload);
        let count = u32::from_le_bytes([blob[4], blob[5], blob[6], blob[7]]) + 1;
        blob[4..8].copy_from_slice(&count.to_le_bytes());
        let mut b = zoo::mnist_a(2);
        load_checkpoint(&mut b, &blob).expect("unknown tag must be skipped");
    }

    #[test]
    fn corrupt_length_fields_cannot_allocate_past_the_blob() {
        // A PLW1 header claiming u32::MAX tensors with a huge rank: decode
        // must fail fast with Truncated, not try to reserve gigabytes.
        let mut blob = Vec::new();
        blob.extend(MAGIC);
        blob.extend(u32::MAX.to_le_bytes()); // tensor count
        blob.extend(u32::MAX.to_le_bytes()); // rank of "first tensor"
        let mut net = zoo::mnist_a(3);
        assert_eq!(load_params(&mut net, &blob), Err(DecodeError::Truncated));

        // Same through the PLW2 path: a TNSR section with absurd dims.
        let mut payload = Vec::new();
        payload.extend(1u32.to_le_bytes()); // one tensor
        payload.extend(2u32.to_le_bytes()); // rank 2
        payload.extend(0x00FF_FFFF_u32.to_le_bytes());
        payload.extend(0x00FF_FFFF_u32.to_le_bytes()); // numel overflows budget
        let mut blob2 = Vec::new();
        blob2.extend(MAGIC2);
        blob2.extend(1u32.to_le_bytes());
        push_section(&mut blob2, b"TNSR", &payload);
        assert_eq!(
            load_checkpoint(&mut net, &blob2).err(),
            Some(DecodeError::Truncated)
        );
    }

    #[test]
    fn shrunken_section_counts_cannot_drop_sections_silently() {
        let mut a = zoo::mnist_a(46);
        let mut blob = save_checkpoint(&mut a, &full_state());
        // Corrupt the section count downwards: the tail sections would be
        // silently ignored without the trailing-bytes check.
        let count = u32::from_le_bytes([blob[4], blob[5], blob[6], blob[7]]) - 1;
        blob[4..8].copy_from_slice(&count.to_le_bytes());
        let mut b = zoo::mnist_a(8);
        assert_eq!(
            load_checkpoint(&mut b, &blob).err(),
            Some(DecodeError::TrailingBytes)
        );
    }

    #[test]
    fn standalone_sections_roundtrip_and_catch_corruption() {
        let sections = vec![
            (*b"WEAR", vec![1u8, 2, 3, 4, 5]),
            (*b"CURS", vec![9u8; 32]),
            (*b"XTRA", Vec::new()),
        ];
        let blob = save_sections(&sections);
        assert_eq!(load_sections(&blob).expect("roundtrip"), sections);

        // Bit flip in the first payload (magic 4 + count 4 + tag 4 + len 4
        // puts its bytes at 16..21) → BadChecksum.
        let mut bad = blob.clone();
        bad[17] ^= 0x40;
        assert_eq!(load_sections(&bad).err(), Some(DecodeError::BadChecksum));

        // Truncation mid-section → Truncated; wrong magic → BadMagic;
        // appended garbage → TrailingBytes.
        assert_eq!(
            load_sections(&blob[..blob.len() - 2]).err(),
            Some(DecodeError::Truncated)
        );
        assert_eq!(
            load_sections(b"PLW1....").err(),
            Some(DecodeError::BadMagic)
        );
        let mut tail = blob;
        tail.push(0);
        assert_eq!(load_sections(&tail).err(), Some(DecodeError::TrailingBytes));
    }

    #[test]
    fn atomic_write_replaces_and_survives_reread() {
        let dir = std::env::temp_dir().join(format!("plw2-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.plw2");
        let mut a = zoo::mnist_a(45);
        let blob = save_checkpoint(&mut a, &full_state());
        atomic_write(&path, &blob).expect("write");
        atomic_write(&path, &blob).expect("overwrite");
        let back = std::fs::read(&path).expect("read");
        assert_eq!(back, blob);
        let mut b = zoo::mnist_a(6);
        load_checkpoint(&mut b, &back).expect("reload");
        std::fs::remove_dir_all(&dir).ok();
    }
}
