//! The trace record type and its 22-byte binary record.

use std::io;

use pomtlb_types::{AccessKind, AddressSpace, Gva, ProcessId, VmId};
use serde::{Deserialize, Serialize};

/// One memory reference from a trace, mirroring the fields the paper's
/// PIN-based traces record (§3.2): virtual address, instruction count,
/// read/write flag and the issuing address space.
///
/// `icount` is the *cumulative* dynamic instruction count of the owning core
/// at the time this reference issues; the interleaver uses it to schedule
/// references from different cores at the proper issue cadence, as the
/// paper's Ramulator-style front end does. Non-memory instructions are
/// abstracted into these gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryRef {
    /// Cumulative instruction count of the issuing core at this reference.
    pub icount: u64,
    /// The guest virtual address accessed.
    pub addr: Gva,
    /// Load or store.
    pub kind: AccessKind,
    /// The VM and process issuing the access.
    pub space: AddressSpace,
}

impl MemoryRef {
    /// Creates a reference record.
    pub fn new(icount: u64, addr: Gva, kind: AccessKind, space: AddressSpace) -> Self {
        MemoryRef { icount, addr, kind, space }
    }
}

/// Bytes per encoded [`MemoryRef`], little-endian:
///
/// ```text
/// icount u64 | addr u64 | vm u16 | pid u16 | kind u8 | pad u8
/// ```
///
/// The refs section of a POMTRC2 recording and the buffer of a
/// [`crate::SharedTrace`] are runs of these records.
pub(crate) const RECORD_BYTES: usize = 22;

pub(crate) fn encode_record(r: &MemoryRef, buf: &mut [u8; RECORD_BYTES]) {
    buf[0..8].copy_from_slice(&r.icount.to_le_bytes());
    buf[8..16].copy_from_slice(&r.addr.raw().to_le_bytes());
    buf[16..18].copy_from_slice(&r.space.vm.0.to_le_bytes());
    buf[18..20].copy_from_slice(&r.space.process.0.to_le_bytes());
    buf[20] = match r.kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    };
    buf[21] = 0;
}

pub(crate) fn decode_record(buf: &[u8; RECORD_BYTES]) -> io::Result<MemoryRef> {
    let icount = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
    let addr = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let vm = u16::from_le_bytes(buf[16..18].try_into().expect("2 bytes"));
    let pid = u16::from_le_bytes(buf[18..20].try_into().expect("2 bytes"));
    let kind = match buf[20] {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid access kind byte {other}"),
            ))
        }
    };
    Ok(MemoryRef::new(
        icount,
        Gva::new(addr),
        kind,
        AddressSpace::new(VmId(vm), ProcessId(pid)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LocalityModel, WorkloadSpec};
    use crate::TraceGenerator;

    #[test]
    fn construction_and_fields() {
        let space = AddressSpace::new(VmId(1), ProcessId(2));
        let r = MemoryRef::new(100, Gva::new(0x1000), AccessKind::Write, space);
        assert_eq!(r.icount, 100);
        assert_eq!(r.addr.raw(), 0x1000);
        assert!(r.kind.is_write());
        assert_eq!(r.space, space);
    }

    #[test]
    fn serde_round_trip() {
        let r = MemoryRef::new(7, Gva::new(0xabc), AccessKind::Read, AddressSpace::default());
        let json = serde_json::to_string(&r).unwrap();
        let back: MemoryRef = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let spec = WorkloadSpec::builder("record-test")
            .footprint_bytes(8 << 20)
            .large_page_frac(0.3)
            .locality(LocalityModel::UniformRandom)
            .build();
        let space = AddressSpace::new(VmId(0x1234), ProcessId(0xbeef));
        let refs: Vec<MemoryRef> = TraceGenerator::with_space(&spec, 7, space)
            .take(500)
            .collect();
        assert!(refs.iter().any(|r| r.kind.is_write()) && refs.iter().any(|r| !r.kind.is_write()));
        let mut buf = [0u8; RECORD_BYTES];
        for r in &refs {
            encode_record(r, &mut buf);
            assert_eq!(decode_record(&buf).unwrap(), *r);
        }
    }

    #[test]
    fn rejects_corrupt_kind_byte() {
        let r = MemoryRef::new(1, Gva::new(0x1000), AccessKind::Read, AddressSpace::default());
        let mut buf = [0u8; RECORD_BYTES];
        encode_record(&r, &mut buf);
        buf[20] = 9; // the kind byte
        let err = decode_record(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
