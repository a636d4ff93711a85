"""Root snapshot plus a backing chain of incremental layers (§3.4, §4.2).

The root snapshot is a full copy of guest memory, device state and the
disk overlay.  Restoring it walks the Nyx dirty-page *stack* (never the
whole bitmap) and resets exactly the pages that diverged.

Above the root sits one QCOW2-style backing chain of
:class:`SnapshotLayer` records, root → layer₁ → … → layerₖ
(docs/snapshots.md).  The paper's single incremental snapshot is chain
depth 1; deeper layers are the same record stacked on top:

* every layer holds a dense page **mirror** that "looks like a
  complete root snapshot without incurring anywhere near the full
  memory cost": pages its capture copied (``touched``) are real copies
  with their own CRC32s, every other entry is a copy-on-write
  reference into the parent's view — the root image for depth 1;
* ``push_overlay`` captures the live state as a new deepest layer (on
  an empty chain: the paper's incremental snapshot);
  ``restore_to_depth(k)`` resets the VM to any layer, resolving page
  identity newest-to-oldest through the ``touched`` sets of the layers
  crossed; ``commit_overlay`` folds the deepest layer into its parent
  (the QCOW2 *commit*, bounding chain length) and ``discard_deepest``
  drops it for free (the QCOW2 *discard*);
* the depth-1 layer is the one record that outlives its cycle: its
  mirror is **recycled**.  A new depth-1 capture reverts the previous
  capture's stale copies to root references and recopies only entries
  that can be out of date, and the mirror is **re-mirrored** to a
  clean CoW view of the root "every 2,000 snapshots created";
* only one chain exists at a time; scheduling a new input discards it
  (§3.4).

Cost accounting: every operation charges the machine clock through the
cost model, so Table 3 and Figure 6 reproduce the structural costs of
the paper (per-dirty-page work + a fixed hypercall/device cost).  The
*simulated* charges are a function of the dirty/diverged sets only —
the host-side bookkeeping below (incremental CRC maintenance, the
since-capture delta set, identity-memoized verification) reduces
Python work per operation without moving a single charge.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.vm.devices import DeviceBoard
from repro.vm.disk import EmulatedDisk
from repro.vm.memory import GuestMemory

#: The paper's re-mirror period: "we re-mirror the physical memory used
#: in the incremental snapshot to a clean copy of the original root
#: memory every 2,000 snapshots created."
REMIRROR_PERIOD = 2000


class SnapshotError(Exception):
    """Raised on snapshot protocol violations (e.g., no root yet)."""


class SnapshotCorruption(SnapshotError):
    """A snapshot layer failed checksum validation on restore.

    The manager has already torn the chain down and healed the damaged
    depth-1 mirror entries back to CoW root references; the caller
    recovers by restoring the root snapshot and (optionally) rebuilding
    the chain from it.
    """


class RootSnapshot:
    """An immutable full copy of the VM state.

    Instances can be *shared* between machines (§5.3 scalability: "we
    share the root snapshots between different instances"): the page
    list is never mutated after capture, so any number of VMs may hold
    references into it.
    """

    __slots__ = ("pages", "device_state", "disk_overlay", "guest_blob",
                 "_page_ids")

    def __init__(self, pages: List[bytes], device_state: Dict[str, Tuple],
                 disk_overlay: Dict[int, bytes], guest_blob: bytes) -> None:
        self.pages = pages
        self.device_state = device_state
        self.disk_overlay = disk_overlay
        #: Opaque host-side guest-OS bookkeeping captured with the root
        #: (the directory of state regions; see repro.guestos.kernel).
        self.guest_blob = guest_blob
        # Lazy memo of immutable data, not guest state.
        self._page_ids: Optional[FrozenSet[int]] = None  # nyx: allow[reset]

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    def page_id_set(self) -> FrozenSet[int]:
        """``id()`` of every page in the (immutable) root image, cached.

        The page list never changes after capture, so the set is
        computed once and shared by every footprint query against this
        root — fleet accounting stops paying an O(num_pages) scan per
        machine per query.
        """
        ids = self._page_ids
        if ids is None:
            ids = self._page_ids = frozenset(map(id, self.pages))
        return ids


class SnapshotStats:
    """Counters describing snapshot activity for a machine."""

    def __init__(self) -> None:
        self.root_restores = 0
        #: Pushes onto an empty chain (the paper's incremental creates).
        self.incremental_creates = 0
        #: Depth-1 restores with no overlay above it.
        self.incremental_restores = 0
        self.remirrors = 0
        self.pages_reset = 0
        self.pages_captured = 0
        self.corruption_detected = 0
        # Overlay activity at depth >= 2 (0 for depth-1 campaigns).
        self.overlay_pushes = 0
        self.overlay_commits = 0
        self.chain_restores = 0
        self.deepest_chain = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class SnapshotLayer:
    """One chain layer: a dense mirror that looks like a full snapshot.

    ``touched`` entries of ``mirror`` are real copies whose CRC32s sit
    in ``checksums``; every other entry is a CoW reference into the
    parent's view.  ``verified_ids`` memoizes the ``id()`` of each copy
    at its last successful CRC check: mirror pages are immutable
    ``bytes``, so an unchanged identity skips the recompute (the
    modelled validation cost is still charged).  Process-local ids:
    never crosses a checkpoint.  ``disk_touched`` holds the sectors
    written between the parent's capture and this one.
    """

    __slots__ = ("mirror", "touched", "checksums", "verified_ids",
                 "device_state", "disk_overlay", "disk_touched")

    def __init__(self, mirror: List[bytes]) -> None:
        self.mirror = mirror
        self.touched: set = set()
        self.checksums: Dict[int, int] = {}
        self.verified_ids: Dict[int, int] = {}
        self.device_state: Optional[Dict[str, Tuple]] = None
        self.disk_overlay: Optional[Dict[int, bytes]] = None
        self.disk_touched: set = set()


class SnapshotManager:  # nyx: allow[reset]
    """Implements Nyx-Net's root snapshot and incremental chain.

    Reset-lint suppression: the manager *is* the reset mechanism; its
    snapshot handles, divergence bookkeeping and CRC tables are
    definitionally cross-exec state.
    """

    #: Layout version of :meth:`snapshot_state` (durability lint NYX062).
    #: 2: the amortized-validation countdown left the capture set.
    STATE_FORMAT = 2

    def __init__(self, memory: GuestMemory, devices: DeviceBoard,
                 disk: EmulatedDisk, clock: SimClock,
                 costs: CostModel) -> None:
        self._memory = memory
        self._devices = devices
        self._disk = disk
        self._clock = clock
        self._costs = costs
        #: Perf counters; recounted by the resumed campaign's fresh
        #: machine (CampaignStats travels independently).
        self.stats = SnapshotStats()  # nyx: state[ephemeral]

        #: Rebuilt by ``capture_root`` on the resumed machine.
        self._root: Optional[RootSnapshot] = None  # nyx: state[ephemeral]
        #: Pages that may differ from the root snapshot.  Rebuilt from
        #: scratch each cycle; checkpoints happen at root boundaries.
        self._diverged: set = set()  # nyx: state[ephemeral]
        #: Pages (re)written since the deepest capture (or, after a
        #: restore, since the restored-to layer) — the subset of
        #: ``_diverged`` whose base-view entry is out of date.  Fed by
        #: ``_absorb_dirty``; drained at captures and restores.
        self._since_create: set = set()  # nyx: state[ephemeral]
        #: Pages whose live memory object differs (by identity) from
        #: the root page — maintained incrementally so footprint
        #: queries never scan the whole page array.
        self._private: set = set()  # nyx: state[ephemeral]
        #: Disk sectors that may differ from the root overlay.
        self._disk_diverged: set = set()  # nyx: state[ephemeral]

        #: The depth-1 layer record, recycled across cycles.  Only its
        #: ``touched`` set travels (see ``snapshot_state``); the mirror
        #: and CRC tables are rebuilt by the next depth-1 capture.
        self._recycled = SnapshotLayer([])  # nyx: state[ephemeral]
        self._creates_since_remirror = 0
        #: Live chain, shallow to deep; element ``i`` is depth ``i + 1``
        #: and element 0 (when present) is ``_recycled``.  Every cycle
        #: ends back at the root, so no chain survives to a checkpoint.
        self._layers: List[SnapshotLayer] = []  # nyx: state[ephemeral]
        #: Chain depth the live VM state currently descends from
        #: (0 = root).  Restores and captures move it.
        self._base_depth = 0  # nyx: state[ephemeral]
        #: Sectors written since the current base's capture — the disk
        #: counterpart of ``_since_create`` for cross-depth restores.
        self._disk_since_base: set = set()  # nyx: state[ephemeral]

        #: Optional :class:`~repro.faults.injector.FaultInjector` hooked
        #: into the restore paths (fault-injection campaigns).
        self.injector: Optional[Any] = None
        #: Page indices the most recent restore actually rewrote, or
        #: ``None`` when every page may have changed (adopting a shared
        #: root).  Restore consumers (the guest kernel's reload) use it
        #: to skip re-reading state regions whose pages provably kept
        #: their bytes across the reset.
        self.last_reset_pages: Optional[set] = None  # nyx: state[ephemeral]

    # -- root snapshot ------------------------------------------------------

    @property
    def has_root(self) -> bool:
        return self._root is not None

    @property
    def incremental_active(self) -> bool:
        """Whether any chain layer (at least the depth-1 snapshot) is live."""
        return bool(self._layers)

    @property
    def chain_depth(self) -> int:
        """Number of snapshot layers above the root (0 = none active)."""
        return len(self._layers)

    @property
    def base_depth(self) -> int:
        """Chain depth the live VM state currently descends from."""
        return self._base_depth

    @property
    def root(self) -> RootSnapshot:
        if self._root is None:
            raise SnapshotError("no root snapshot has been captured")
        return self._root

    def capture_root(self, guest_blob: bytes = b"") -> RootSnapshot:
        """Take the (expensive) full-copy root snapshot.

        "Creating a root snapshot is expensive because it requires to
        copy the whole physical memory" — we charge per page of the
        whole memory, not per dirty page.
        """
        pages = self._memory.pages_snapshot()
        root = RootSnapshot(
            pages=pages,
            device_state=self._devices.capture_fast(),
            disk_overlay=self._disk.capture_overlay(),
            guest_blob=guest_blob,
        )
        self._clock.charge(
            self._costs.snapshot_fixed
            + self._memory.num_pages * self._costs.root_page_copy)
        self._root = root
        self._memory.clear_dirty_log()
        self._disk.take_dirty()
        self._start_from_root()
        return root

    def adopt_root(self, root: RootSnapshot) -> None:
        """Attach a *shared* root snapshot captured by another machine.

        This is the §5.3 scalability mechanism: 80 instances sharing one
        root only pay for their private dirty pages.  The caller must
        ensure memory geometry matches.
        """
        if root.num_pages != self._memory.num_pages:
            raise SnapshotError("shared root has mismatched memory geometry")
        self._root = root
        self.last_reset_pages = None  # every page changes: no fast path
        # Load the shared image into this machine (CoW references).
        for idx, page in enumerate(root.pages):
            self._memory.set_page(idx, page, log=False)
        self._devices.restore_fast(root.device_state)
        self._disk.restore_overlay(root.disk_overlay, self._disk.take_dirty())
        self._memory.clear_dirty_log()
        self._start_from_root()

    def _start_from_root(self) -> None:
        """Forget all divergence and chain state: the live VM *is* the
        root, and the depth-1 mirror restarts as a CoW view of it."""
        self._diverged = set()
        self._since_create = set()
        self._private = set()
        self._disk_diverged = set()
        self._recycled = SnapshotLayer(list(self.root.pages))
        self._creates_since_remirror = 0
        self._teardown_chain()

    def restore_root(self) -> int:  # nyx: hot
        """Reset the VM to the root snapshot; returns pages reset."""
        root = self.root
        if self.injector is not None:
            self.injector.on_root_restore(self)
        self._absorb_dirty()
        diverged = self._diverged
        self._memory.restore_pages(diverged, root.pages)
        n = len(diverged)
        self.last_reset_pages = diverged
        self._diverged = set()
        self._since_create = set()
        self._private = set()
        self._devices.restore_fast(root.device_state)
        for sector in self._disk_diverged:
            overlay = root.disk_overlay
            self._disk.restore_overlay(overlay, [sector])
        nsect = len(self._disk_diverged)
        self._disk_diverged = set()
        self._disk.take_dirty()
        self._clock.charge(
            self._costs.snapshot_fixed
            + self._costs.device_reset_fast
            + n * self._costs.page_copy
            + nsect * self._costs.sector_copy)
        self.stats.root_restores += 1
        self.stats.pages_reset += n
        # Discarding the chain is free: the depth-1 mirror is lazily
        # re-populated on the next capture and overlays die with their
        # cycle.
        if self._layers:
            self._layers = []
        self._base_depth = 0
        self._disk_since_base = set()
        return n

    # -- the chain ------------------------------------------------------------

    def create_incremental(self) -> int:
        """The paper's incremental snapshot: replace any live chain with
        a fresh depth-1 layer at the current state (pages captured)."""
        self.discard_incremental()
        return self.push_overlay()

    def restore_incremental(self) -> int:
        """Reset the VM to the depth-1 snapshot; returns pages reset."""
        return self.restore_to_depth(1)

    def discard_incremental(self) -> None:
        """Drop the whole chain (scheduling a new input, §3.4).

        Pages the overlays captured privately may leave the recycled
        depth-1 mirror stale, so they join the written-since-base set
        the next depth-1 capture recopies from.
        """
        for layer in self._layers[1:]:
            self._since_create |= layer.touched
        self._layers = []
        self._base_depth = 0
        self._disk_since_base = set()

    def push_overlay(self) -> int:
        """Capture the *current* state as a new deepest chain layer.

        Returns the number of pages captured.  The layer's mirror is a
        CoW view of its parent's with the pages that differ from it
        copied in: at depth 1 every page diverged from the root (into
        the recycled mirror, whose stale copies are reverted first and
        whose current copies are kept), deeper the pages written since
        the parent's capture.  Charged per captured page plus each
        stale revert (depth 1 only), a fixed hypercall cost and a
        device state copy; the depth-1 re-mirror charges one more
        hypercall every ``REMIRROR_PERIOD`` creates.
        """
        layers = self._layers
        depth = len(layers) + 1
        if self._base_depth != depth - 1:
            raise SnapshotError(
                "live state descends from depth %d, not the deepest layer "
                "%d; restore there before pushing"
                % (self._base_depth, depth - 1))
        root = self.root
        self._absorb_dirty()
        stale: set = set()
        if layers:
            layer = SnapshotLayer(list(layers[-1].mirror))
            captured = to_copy = self._since_create
        else:
            if self._creates_since_remirror >= REMIRROR_PERIOD:
                # Re-mirror: throw away accumulated real copies and
                # start from a clean CoW view of the root image.
                self._recycled = SnapshotLayer(list(root.pages))
                self._creates_since_remirror = 0
                self.stats.remirrors += 1
                self._clock.charge(self._costs.snapshot_fixed)
            self._creates_since_remirror += 1
            layer = self._recycled
            captured = self._diverged
            touched = layer.touched
            # Revert entries left over from the previous capture that
            # no longer diverge from the root.
            stale = touched - captured
            for idx in stale:
                layer.mirror[idx] = root.pages[idx]
                layer.checksums.pop(idx, None)
                layer.verified_ids.pop(idx, None)
            # Recopy only entries that can be out of date: pages
            # written since the last capture, plus pages the mirror
            # never held a copy of.
            if touched:
                to_copy = ((captured & self._since_create)
                           | (captured - touched))
            else:
                to_copy = captured
        mirror = layer.mirror
        checksums = layer.checksums
        verified = layer.verified_ids
        crc32 = zlib.crc32
        for idx, page in self._memory.sealed_pages(to_copy).items():
            mirror[idx] = page
            checksums[idx] = crc32(page)
            verified[idx] = id(page)
        layer.touched = set(captured)
        layer.device_state = self._devices.capture_fast()
        layer.disk_overlay = self._disk.capture_overlay()
        layer.disk_touched = self._disk_since_base
        layers.append(layer)
        self._since_create = set()
        self._disk_since_base = set()
        self._base_depth = depth
        n = len(captured)
        self._clock.charge(
            self._costs.snapshot_fixed
            + self._costs.device_reset_fast
            + (n + len(stale)) * self._costs.page_copy)
        if depth == 1:
            self.stats.incremental_creates += 1
        else:
            self.stats.overlay_pushes += 1
            if depth > self.stats.deepest_chain:
                self.stats.deepest_chain = depth
        self.stats.pages_captured += n
        return n

    def restore_to_depth(self, depth: int) -> int:  # nyx: hot
        """Reset the VM to chain layer ``depth``; returns pages reset.

        Every layer down to the target is checksum-validated first.
        Page identity resolves newest-to-oldest: the reset set is the
        pages written since the current base plus the symmetric
        difference between the base's view and the target's view (the
        union of the ``touched`` sets of every layer strictly between
        them), each restored from the target's dense mirror in one
        dirty-write-avoiding batch.  Deeper layers stay alive, so the
        placement bandit can hop between nodes restore-by-restore.
        """
        layers = self._layers
        top = len(layers)
        if not 1 <= depth <= top:
            raise SnapshotError("no chain layer at depth %d (chain depth %d)"
                                % (depth, top))
        if self.injector is not None:
            self.injector.on_incremental_restore(self)
        for layer in layers[:depth]:
            self._verify(layer)
        reset = self._since_create
        reset.update(self._memory.take_dirty())
        base = self._base_depth
        crossed = layers[min(base, depth):max(base, depth)]
        for layer in crossed:
            reset |= layer.touched
        target = layers[depth - 1]
        view = target.mirror
        self._memory.restore_pages(reset, view)
        self.last_reset_pages = set(reset)
        diverged = self._diverged
        private = self._private
        root_pages = self.root.pages
        for idx in reset:
            diverged.add(idx)
            # A CoW reference all the way down to the root image
            # restores the page to shared-root identity; anything else
            # is a private copy.
            if view[idx] is root_pages[idx]:
                private.discard(idx)
            else:
                private.add(idx)
        self._since_create = set()
        self._devices.restore_fast(target.device_state)
        # Sectors drained into the since-base set mid-cycle (or parked
        # there by a commit the live state did not descend from) still
        # differ from the capture and must be reset too.
        sectors = set(self._disk.take_dirty())
        sectors |= self._disk_since_base
        for layer in crossed:
            sectors |= layer.disk_touched
        self._disk.restore_overlay(target.disk_overlay, sectors)
        self._disk_diverged.update(sectors)
        self._disk_since_base = set()
        self._base_depth = depth
        n = len(reset)
        self._clock.charge(
            self._costs.snapshot_fixed
            + self._costs.device_reset_fast
            + n * self._costs.page_copy
            + len(sectors) * self._costs.sector_copy)
        if top == 1:
            self.stats.incremental_restores += 1
        else:
            self.stats.chain_restores += 1
        self.stats.pages_reset += n
        return n

    def commit_overlay(self) -> int:
        """Fold the deepest layer into its parent (QCOW2 *commit*).

        Bounds chain length without losing the deepest state: the
        parent's mirror adopts the child's real copies (and their
        CRCs), its touched/disk sets absorb the child's, and its
        device/disk captures are replaced by the child's — after which
        the parent *is* the child's snapshot, one level shallower.
        Returns the number of pages folded; charged per folded page
        plus the fixed hypercall cost.
        """
        layers = self._layers
        if len(layers) < 2:
            raise SnapshotError("no overlay to commit")
        child = layers.pop()
        parent = layers[-1]
        mirror = parent.mirror
        for idx in child.touched:
            mirror[idx] = child.mirror[idx]
            parent.checksums[idx] = child.checksums[idx]
            parent.verified_ids[idx] = child.verified_ids[idx]
        parent.touched |= child.touched
        parent.disk_touched |= child.disk_touched
        parent.device_state = child.device_state
        parent.disk_overlay = child.disk_overlay
        depth = len(layers)
        if self._base_depth > depth:
            # The live state descended from the committed child; its
            # view now lives one level down, contents unchanged.
            self._base_depth = depth
        elif self._base_depth == depth:
            # The live state descends from the parent, whose captured
            # view just adopted the child's content: every page (and
            # sector) the child held may now differ between the live
            # state and its base, so they join the written-since-base
            # sets for the next restore to reset.
            self._since_create |= child.touched
            self._disk_since_base |= child.disk_touched
        n = len(child.touched)
        self._clock.charge(
            self._costs.snapshot_fixed
            + n * self._costs.page_copy)
        self.stats.overlay_commits += 1
        return n

    def discard_deepest(self) -> None:
        """Drop the deepest chain layer (QCOW2 *discard*; free).

        At depth 1 this is :meth:`discard_incremental`.  When the live
        state descends from the dropped layer, the pages that layer
        held privately rejoin the written-since-base set — the next
        restore resets them against the new base's view.
        """
        layers = self._layers
        if len(layers) <= 1:
            self.discard_incremental()
            return
        dropped = layers.pop()
        if self._base_depth > len(layers):
            self._since_create |= dropped.touched
            self._disk_since_base |= dropped.disk_touched
            self._base_depth = len(layers)

    def _verify(self, layer: SnapshotLayer) -> None:
        """Checksum-validate one layer's real copies before a restore.

        Cost: one pass over the copies, charged like a page copy each.
        Host-side, copies whose object identity is unchanged since
        their last successful check skip the CRC recompute — immutable
        pages cannot change content without changing identity.  On
        mismatch the corrupt entries are healed back to CoW root
        references (the recycled depth-1 mirror outlives the chain),
        the whole chain is torn down — layers build on each other, so
        one corrupt layer poisons everything deeper — and
        :class:`SnapshotCorruption` sends the caller down the usual
        rebuild-from-root ladder.
        """
        mirror = layer.mirror
        checksums = layer.checksums
        verified = layer.verified_ids
        crc32 = zlib.crc32
        bad = []
        for idx, crc in checksums.items():
            page = mirror[idx]
            if verified.get(idx) == id(page):
                continue
            if crc32(page) != crc:
                bad.append(idx)
            else:
                verified[idx] = id(page)
        self._clock.charge(len(checksums) * self._costs.page_copy)
        if not bad:
            return
        root_pages = self.root.pages
        for idx in bad:
            mirror[idx] = root_pages[idx]
            layer.touched.discard(idx)
            del checksums[idx]
            verified.pop(idx, None)
        depth = self._layers.index(layer) + 1
        self._teardown_chain()
        self.stats.corruption_detected += 1
        raise SnapshotCorruption(
            "snapshot layer %d failed validation on %d page(s): %s"
            % (depth, len(bad), sorted(bad)[:8]))

    def _teardown_chain(self) -> None:
        """Deactivate the whole chain.  Live memory is untouched; the
        caller falls back to the (immutable, trustworthy) root
        snapshot, whose restore path resets every diverged page."""
        self._layers = []
        self._base_depth = 0
        self._disk_since_base = set()

    # -- durability (checkpoint/resume) ----------------------------------------

    def snapshot_state(self) -> dict:
        """Sim-charge-relevant cursors for a campaign checkpoint.

        Taken at a step boundary (root restored, no overlay chain), the
        only snapshot state that influences *future* sim charges is
        which depth-1 mirror entries are real copies (the stale revert
        at the next create charges per page) and how far the re-mirror
        period has advanced.  Page contents, per-page CRCs and the
        verified-identity memo are deliberately excluded — they are
        host-side caches rebuilt by the next depth-1 capture (and the
        memo holds process-local ``id()``s that must never cross a
        checkpoint).  ``chain_overlays``/``base_depth`` are captured
        only to *assert* the boundary invariant on restore: an overlay
        chain never survives to a checkpoint.
        """
        return {"mirror_touched": sorted(self._recycled.touched),
                "creates_since_remirror": self._creates_since_remirror,
                "base_depth": self._base_depth,
                "chain_overlays": max(0, len(self._layers) - 1)}

    def restore_state(self, state: dict) -> None:
        """Adopt checkpointed cursors on a freshly (re)built machine.

        The restored ``mirror_touched`` entries point at CoW root
        references rather than the original private copies; the next
        depth-1 capture reverts or recopies every one of them (charging
        exactly what the original run would have), so the invariant
        heals before any restore can observe the difference.
        """
        if int(state.get("chain_overlays", 0)):
            raise SnapshotError(
                "checkpoint captured a live overlay chain; checkpoints "
                "must land on step boundaries")
        recycled = self._recycled
        recycled.touched = set(state["mirror_touched"])
        recycled.checksums = {}
        recycled.verified_ids = {}
        self._creates_since_remirror = int(state["creates_since_remirror"])
        self._layers = []
        self._base_depth = int(state.get("base_depth", 0))
        self._disk_since_base = set()

    # -- fault-injection surface (see repro.faults) ---------------------------

    def mirror_private_pages(self) -> set:
        """Indices of depth-1 mirror pages that are real copies (safe
        to corrupt without touching the shared root image)."""
        return set(self._recycled.touched)

    def flip_mirror_bit(self, idx: int, byte: int = 0, bit: int = 0) -> None:
        """Corrupt one bit of a real-copy depth-1 mirror page.

        Refuses CoW references into the root: those page objects may be
        shared with other machines, and the point of the fault model is
        that only *this* instance's incremental state decays.
        """
        layer = self._recycled
        if idx not in layer.touched:
            return
        page = bytearray(layer.mirror[idx])
        if not page:
            return
        page[byte % len(page)] ^= 1 << (bit % 8)
        layer.mirror[idx] = bytes(page)

    def charge_fault_latency(self, seconds: float) -> None:
        """Charge injected reset latency (the SLOW_RESET fault)."""
        self._clock.charge(seconds)

    # -- accounting -----------------------------------------------------------

    def diverged_pages(self) -> int:
        """Pages currently known to differ from the root snapshot."""
        self._absorb_dirty()
        return len(self._diverged)

    def owned_page_identities(self) -> set:
        """``id()`` of every page object this VM keeps alive.

        Covers the shared root image (held via the root snapshot and
        through every CoW reference in live memory and the mirror),
        this VM's private live pages, and the depth-1 mirror's real
        copies.  Unioning these sets across a fleet — together with
        the root image's own pages — yields the fleet's true
        unique-page footprint.  O(private + mirror copies): the shared
        portion comes from the root's cached id set.
        """
        if self._root is None:
            return set(self._memory.page_identities())
        ids = set(self._root.page_id_set())
        memory = self._memory
        for idx in self._private:
            ids.add(id(memory.page(idx)))
        mirror = self._recycled.mirror
        for idx in self._recycled.touched:
            ids.add(id(mirror[idx]))
        return ids

    def private_page_count(self) -> int:
        """Pages of this VM not shared (by identity) with the root.

        Used by the §5.3 scalability experiment: instances sharing a
        root snapshot only own their diverged live pages plus the
        depth-1 mirror's real copies (entries that are not the root
        page object).  O(private + mirror copies) — no O(num_pages)
        identity scan.
        """
        self._absorb_dirty()
        private = len(self._private)
        if self._root is not None:
            root_pages = self._root.pages
            mirror = self._recycled.mirror
            for idx in self._recycled.touched:
                if mirror[idx] is not root_pages[idx]:
                    private += 1
        return private

    def _absorb_dirty(self) -> None:
        """Fold the hardware dirty log into the diverged-from-root set."""
        dirty = self._memory.take_dirty()
        if dirty:
            self._diverged.update(dirty)
            self._since_create.update(dirty)
            self._private.update(dirty)
        dirty_sectors = self._disk.take_dirty()
        if dirty_sectors:
            self._disk_diverged.update(dirty_sectors)
            self._disk_since_base.update(dirty_sectors)
