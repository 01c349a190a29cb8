"""Physical register file lifecycle tests."""

import pytest

from repro.core.regfile import NEVER, PhysRegFile, RegState
from repro.core.stats import LifetimeStats


@pytest.fixture
def rf():
    return PhysRegFile(8, "int")


class TestAllocate:
    def test_lifecycle(self, rf):
        preg = rf.allocate(lreg=3, owner_seq=7, cycle=10)
        assert rf.state[preg] == RegState.ALLOC
        assert rf.lreg[preg] == 3
        assert rf.owner_seq[preg] == 7
        assert rf.allocated_count == 1
        rf.write(preg, 0x55, cycle=15)
        assert rf.state[preg] == RegState.WRITTEN
        assert rf.value[preg] == 0x55
        rf.read_stamp(preg, 20)
        assert rf.release(preg, 30)
        assert rf.state[preg] == RegState.FREE
        assert rf.allocated_count == 0

    def test_exhaustion(self, rf):
        for _ in range(8):
            assert rf.allocate(0, 0, 0) is not None
        assert rf.allocate(0, 0, 0) is None

    def test_generation_bumps(self, rf):
        preg = rf.allocate(0, 0, 0)
        gen1 = rf.gen[preg]
        rf.release(preg, 1)
        # Ordered free list: the lowest-numbered free register — the one
        # just released — comes straight back.
        again = rf.allocate(0, 0, 0)
        assert again == preg
        assert rf.gen[preg] == gen1 + 1
        assert not rf.gen_matches(preg, gen1)

    def test_generation_bumps_fifo(self):
        rf = PhysRegFile(8, "int", alloc_policy="fifo")
        preg = rf.allocate(0, 0, 0)
        gen1 = rf.gen[preg]
        rf.release(preg, 1)
        # FIFO free list: drain the rest so the same register comes back.
        for _ in range(7):
            rf.allocate(0, 0, 0)
        again = rf.allocate(0, 0, 0)
        assert again == preg
        assert rf.gen[preg] == gen1 + 1
        assert not rf.gen_matches(preg, gen1)

    def test_allocate_resets_scheduling_state(self, rf):
        preg = rf.allocate(0, 0, 0)
        rf.pred_ready[preg] = 5
        rf.ready_select[preg] = 5
        rf.inline_pending[preg] = True
        rf.retire_pending[preg] = True
        rf.release(preg, 1)
        assert rf.allocate(0, 0, 0) == preg
        assert rf.pred_ready[preg] == NEVER
        assert rf.ready_select[preg] == NEVER
        assert not rf.inline_pending[preg]
        assert not rf.retire_pending[preg]


class TestRelease:
    def test_duplicate_release_tolerated(self, rf):
        preg = rf.allocate(0, 0, 0)
        assert rf.release(preg, 1) is True
        assert rf.release(preg, 2) is False
        assert rf.free_list.duplicate_releases >= 1

    def test_lifetime_recorded(self, rf):
        life = LifetimeStats()
        preg = rf.allocate(0, 0, cycle=10)
        rf.write(preg, 1, cycle=14)
        rf.read_stamp(preg, 20)
        rf.read_stamp(preg, 18)  # earlier read does not move last-read back
        rf.release(preg, 30, life)
        assert life.releases == 1
        assert life.alloc_to_write == 4
        assert life.write_to_last_read == 6
        assert life.last_read_to_release == 10

    def test_architectural_allocation(self, rf):
        preg = rf.allocate_architectural(5, 0xAB)
        assert rf.state[preg] == RegState.WRITTEN
        assert rf.value[preg] == 0xAB
        assert rf.ready_select[preg] == 0


class TestConsistency:
    def test_assert_consistent(self, rf):
        rf.allocate(0, 0, 0)
        rf.assert_consistent()
        rf.allocated_count += 1  # corrupt on purpose
        with pytest.raises(AssertionError):
            rf.assert_consistent()
