//! VM lifecycle tracking under churn: teardown, reboot, and fork storms.

use pomtlb_types::VmId;

/// Lifecycle event counters a consolidation run accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChurnCounters {
    /// `DestroyVm` teardowns observed.
    pub destroys: u64,
    /// Reboots: a destroyed VM_ID seen issuing traffic again (the ID-reuse
    /// pattern real hypervisors exhibit, and the one `StaleChecker` guards).
    pub reboots: u64,
    /// Fork-time COW page remaps charged against tenant VMs.
    pub fork_remaps: u64,
}

/// Tracks which VM_IDs are currently torn down, so ID reuse is observable.
///
/// The state is one flag per VM_ID, updated deterministically by the
/// lifecycle events [`crate::System`] applies.
#[derive(Debug, Clone, Default)]
pub struct VmLifecycle {
    counters: ChurnCounters,
    /// Per-VM "destroyed, awaiting reboot" flags, indexed by VM_ID.
    down: Vec<bool>,
}

impl VmLifecycle {
    /// Builds a tracker for `vms` tenant VM_IDs.
    pub fn new(vms: u32) -> VmLifecycle {
        VmLifecycle { counters: ChurnCounters::default(), down: vec![false; vms as usize] }
    }

    /// The accumulated counters.
    pub fn counters(&self) -> ChurnCounters {
        self.counters
    }

    /// Records a `DestroyVm` against `vm`.
    pub fn note_destroy(&mut self, vm: VmId) {
        self.counters.destroys += 1;
        if let Some(flag) = self.down.get_mut(usize::from(vm.0)) {
            *flag = true;
        }
    }

    /// Records a fork-storm COW remap against `vm`.
    pub fn note_fork_remap(&mut self, _vm: VmId) {
        self.counters.fork_remaps += 1;
    }

    /// Records traffic from `vm`; if the ID was torn down, this is the
    /// successor VM booting with a reused VM_ID.
    pub fn note_active(&mut self, vm: VmId) {
        if let Some(flag) = self.down.get_mut(usize::from(vm.0)) {
            if *flag {
                *flag = false;
                self.counters.reboots += 1;
            }
        }
    }

    /// Clears counters and flags (warmup boundary).
    pub fn reset(&mut self) {
        self.counters = ChurnCounters::default();
        self.down.iter_mut().for_each(|f| *f = false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_of_a_destroyed_id_counts_one_reboot() {
        let mut lc = VmLifecycle::new(16);
        lc.note_active(VmId(3));
        assert_eq!(lc.counters().reboots, 0, "first boot is not a reboot");
        lc.note_destroy(VmId(3));
        lc.note_destroy(VmId(3));
        lc.note_active(VmId(3));
        lc.note_active(VmId(3));
        let c = lc.counters();
        assert_eq!((c.destroys, c.reboots), (2, 1), "one reboot per down->up edge");
    }

    #[test]
    fn out_of_range_ids_are_ignored() {
        let mut lc = VmLifecycle::new(4);
        lc.note_destroy(VmId(9000));
        lc.note_active(VmId(9000));
        assert_eq!(lc.counters().destroys, 1);
        assert_eq!(lc.counters().reboots, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut lc = VmLifecycle::new(4);
        lc.note_destroy(VmId(1));
        lc.note_fork_remap(VmId(2));
        lc.reset();
        assert_eq!(lc.counters(), ChurnCounters::default());
        lc.note_active(VmId(1));
        assert_eq!(lc.counters().reboots, 0, "down flags cleared by reset");
    }
}
