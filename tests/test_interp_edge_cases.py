"""Edge-case tests for the interpreter: overrides, stack, budgets, output."""

import hashlib
import json

import pytest

from repro import compile_source
from repro.faults import CampaignSpec, TrialPlan, fork_available
from repro.faults.models import InjectionSpec
from repro.faults.parallel import run_campaign
from repro.interp import Interpreter, run_module
from repro.interp.errors import StackOverflow
from repro.ir import (
    ArrayType,
    F64,
    I64,
    IRBuilder,
    Module,
    const_float,
    const_int,
    verify_module,
)
from repro.protect import FullDuplicationSelector, duplicate_instructions
from repro.recover import RecoveryPolicy, SnapshotLadder, WarmStart, exact_state_eq
from repro.recover.runtime import RecoveryState
from repro.faults.model import result_bits
from tests.test_regions import _Rung, first_value, flip, golden_trip, per_block_dispatch


class TestGlobalOverrides:
    SOURCE = """
    int n = 3;
    double scale = 2.0;
    output double result[4];
    void main() {
        for (int i = 0; i < n; i = i + 1) { result[i] = scale; }
    }
    """

    def test_scalar_override(self):
        interp = Interpreter(compile_source(self.SOURCE))
        interp.set_global_override("scale", 7.5)
        interp.run()
        assert interp.read_global("result")[:3] == [7.5] * 3

    def test_array_override(self):
        interp = Interpreter(compile_source(self.SOURCE))
        interp.set_global_override("result", [9.0, 9.0])
        interp.set_global_override("n", 1)
        interp.run()
        # Cell 0 overwritten by the program; cell 1 keeps the override.
        assert interp.read_global("result")[:2] == [2.0, 9.0]

    def test_override_too_long_rejected(self):
        interp = Interpreter(compile_source(self.SOURCE))
        with pytest.raises(ValueError, match="cells"):
            interp.set_global_override("result", [0.0] * 5)

    def test_unknown_global_rejected(self):
        interp = Interpreter(compile_source(self.SOURCE))
        with pytest.raises(KeyError):
            interp.set_global_override("nope", 1)

    def test_clear_overrides(self):
        interp = Interpreter(compile_source(self.SOURCE))
        interp.set_global_override("scale", 5.0)
        interp.clear_global_overrides()
        interp.run()
        assert interp.read_global("result")[0] == 2.0

    def test_read_scalar_global(self):
        interp = Interpreter(compile_source(self.SOURCE))
        interp.run()
        assert interp.read_global("n") == 3
        assert interp.read_global("scale") == 2.0


class TestStackBehaviour:
    def test_stack_exhaustion_traps(self):
        m = Module("t")
        fn = m.add_function("main", I64, [])
        b = IRBuilder(fn.add_block("entry"))
        buf = b.alloca(ArrayType(I64, 100))
        p = b.gep(buf, const_int(0))
        b.ret(b.load(p))
        verify_module(m)
        interp = Interpreter(m, stack_cells=32)  # smaller than the alloca
        result = interp.run()
        assert result.status == "trap"
        assert "stack" in result.error.lower()

    def test_stack_reset_between_calls(self):
        """Allocas are freed on return: repeated calls reuse the frame."""
        source = """
        output double result[1];
        double work(double v) {
            double buf[64];
            buf[0] = v;
            return buf[0] * 2.0;
        }
        void main() {
            double acc = 0.0;
            for (int i = 0; i < 200; i = i + 1) {
                acc = acc + work((double)i);
            }
            result[0] = acc;
        }
        """
        module = compile_source(source)
        interp = Interpreter(module, stack_cells=256)
        result = interp.run()
        assert result.status == "ok"  # 200 x 64 cells only works if freed


# A recursive kernel with local arrays, plus a global ``g`` whose index
# reaches any absolute address: ``g[load_at]`` is read and ``g[store_at]``
# written twice inside a loop, so region code does both.
ARENA_KERNEL = """
output double result[4];
double g[1];
int load_at = 0;
int store_at = 0;
int depth = 3;

double descend(int d) {
    double buf[64];
    for (int i = 0; i < 64; i = i + 8) { buf[i] = (double)(i + d); }
    double s = buf[d * 8];
    if (d > 0) { s = s + descend(d - 1); }
    return s;
}

void main() {
    result[0] = descend(depth);
    for (int k = 0; k < 2; k = k + 1) {
        result[1] = g[load_at];
        g[store_at] = 2.5;
    }
}
"""
ARENA_FRAMES = 4 * 64  # descend(3) down to descend(0), one buf[64] each


def arena_interp(stack_cells=Interpreter.DEFAULT_STACK_CELLS, module=None):
    return Interpreter(module or compile_source(ARENA_KERNEL), stack_cells=stack_cells)


def point(interp, name, addr):
    """Aim ``g[name]`` at absolute address ``addr``."""
    interp.set_global_override(name, addr - interp.cm.global_addr["g"])


def run_on(interp, table):
    """Run ``main`` with the block, the region or the tracked table.

    The tracked run is resync-armed: its flip (main's first value,
    corrupted to itself) fires at once and its only rung lies past the
    end, so the rest of the run executes tracked region functions."""
    if table == "block":
        with per_block_dispatch(interp.cm):
            return interp.run()
    if table == "region":
        return interp.run()
    inst = first_value(interp.cm, "main")
    ladder = SnapshotLadder([_Rung(0, 1 << 40)], 1, 0, None, "main")
    result = interp.run(
        injection=InjectionSpec(inst, 1, "once", corrupt=lambda v: v),
        warm=WarmStart(ladder, None, resync=True),
        **golden_trip(interp, "main", inst),
    )
    assert result.injection_hit
    return result


TABLES = ("block", "region", "tracked")


class TestArenaSemantics:
    """``cells`` holds the globals plus the stack prefix a run allocated or
    stored to; up to ``cells_end`` the arena continues with int 0 cells
    that loads read without growing the list and stores grow it to."""

    @pytest.mark.parametrize("table", TABLES)
    def test_an_untouched_stack_cell_loads_int_zero(self, table):
        interp = arena_interp()
        addr = interp.cells_end - 100
        point(interp, "load_at", addr)
        result = run_on(interp, table)
        assert result.status == "ok"
        value = interp.read_global("result")[1]
        assert type(value) is int and value == 0
        assert len(interp.cells) == interp.cm.stack_base + ARENA_FRAMES < addr

    @pytest.mark.parametrize("table", TABLES)
    def test_a_store_at_the_last_cell(self, table):
        interp = arena_interp()
        end = interp.cells_end
        point(interp, "load_at", end - 1)
        point(interp, "store_at", end - 1)
        result = run_on(interp, table)
        assert result.status == "ok"
        assert len(interp.cells) == end
        assert interp.cells[end - 1] == 2.5
        assert interp.read_global("result")[1] == 2.5  # the second load
        grown = interp.cells[interp.cm.stack_base + ARENA_FRAMES : end - 1]
        assert exact_state_eq(grown, [0] * len(grown))

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize("access", ["load_at", "store_at"])
    def test_the_arena_end_and_negative_addresses_trap(self, table, access):
        interp = arena_interp()
        end = interp.cells_end
        for addr in (end, end + 12345, -1, -end):
            point(interp, access, addr)
            result = run_on(interp, table)
            assert result.status == "trap"
            assert result.error == f"MemoryFault: invalid address {addr}"
            assert len(interp.cells) == interp.cm.stack_base + ARENA_FRAMES

    @pytest.mark.parametrize("table", TABLES)
    def test_alloc_up_to_the_arena_end(self, table):
        module = compile_source(ARENA_KERNEL)
        interp = arena_interp(ARENA_FRAMES, module)
        assert run_on(interp, table).status == "ok"
        assert len(interp.cells) == interp.cells_end
        result = run_on(arena_interp(ARENA_FRAMES - 1, module), table)
        assert result.status == "trap"
        assert result.error == "StackOverflow: stack exhausted allocating 64 cells"

    def test_alloc_checks_the_logical_end(self):
        interp = arena_interp()
        interp.reset()
        assert interp.alloc(interp.stack_cells) == interp.cm.stack_base
        assert len(interp.cells) == interp.sp == interp.cells_end
        with pytest.raises(StackOverflow, match="stack exhausted allocating 1 cells"):
            interp.alloc(1)

    @pytest.mark.parametrize("table", TABLES)
    def test_reset_returns_to_the_globals_image(self, table):
        interp = arena_interp()
        point(interp, "store_at", interp.cells_end - 1)
        first = run_on(interp, table)
        cells = list(interp.cells)
        assert len(cells) == interp.cells_end
        interp.reset()
        assert len(interp.cells) == len(interp.cm.global_template)
        again = run_on(interp, table)
        assert (again.status, again.cycles) == (first.status, first.cycles)
        assert exact_state_eq(interp.cells, cells)

    def test_a_rollback_after_the_list_grew(self, monkeypatch):
        """A fault detected after a store grew the list rolls back to a
        snapshot taken before the growth and ends in the golden state.
        Recovery runs dispatch block by block whatever the tables hold."""
        module = compile_source(ARENA_KERNEL)
        duplicate_instructions(module, FullDuplicationSelector().select(module))
        interp = arena_interp(module=module)
        point(interp, "store_at", interp.cells_end - 7)
        golden = interp.run(recovery=RecoveryPolicy())
        assert golden.status == "ok"
        golden_cells = list(interp.cells)
        golden_log = list(interp.output_log)

        grows, rollbacks = [], []
        store_past, on_detection = Interpreter.store_past, RecoveryState.on_detection

        def grow(self, addr):
            grows.append(self.cycles)
            return store_past(self, addr)

        def detect(self, snapshot, cycles):
            rollbacks.append((snapshot.cycles, cycles))
            return on_detection(self, snapshot, cycles)

        monkeypatch.setattr(Interpreter, "store_past", grow)
        monkeypatch.setattr(RecoveryState, "on_detection", detect)
        main = module.get_function("main")
        rolled_over_growth = 0
        for inst in (i for b in main.blocks for i in b.instructions):
            if id(inst) not in interp.cm.records or inst.type.is_void():
                continue
            grows.clear()
            rollbacks.clear()
            result = interp.run(
                injection=flip(inst, 1, 7 % result_bits(inst)), recovery=RecoveryPolicy()
            )
            if not result.recovery.rollbacks:
                continue
            assert result.status == "ok"
            assert exact_state_eq(interp.cells, golden_cells)
            assert exact_state_eq(interp.output_log, golden_log)
            rolled_over_growth += any(
                snap < grows[0] <= at for snap, at in rollbacks
            )
        assert rolled_over_growth


# A stack-heavy kernel for whole campaigns: every frame allocates 1,024
# cells and most of them stay untouched, a flip of the depth recurses into
# StackOverflow, and a flip of a buf index stores wild into live frames,
# into the untouched stack above them, or past the arena end.
STACK_KERNEL = """
int depth = 5;
int width = 6;
output double result[4];

double descend(int d, double seed) {
    double buf[1024];
    for (int i = 0; i < width; i = i + 1) { buf[i * 37] = seed * 0.5 + (double)i; }
    double s = 0.0;
    if (d > 0) { s = descend(d - 1, buf[37]); }
    for (int i = 0; i < width; i = i + 1) { s = s + buf[i * 37 + 1] + buf[i * 37] * 0.25; }
    return s + (double)d;
}

void main() {
    double acc = 0.0;
    for (int k = 0; k < 3; k = k + 1) {
        acc = acc + descend(depth, (double)k);
        print(acc);
    }
    result[0] = acc;
    result[1] = (double)depth;
}
"""

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="supervised pool needs the fork start method"
)


class TestStackCampaignRecords:
    """Trial entries of stack-using campaigns, pinned from the interpreter
    that kept the whole zeroed stack in ``cells``: the live-sized arena must
    reproduce them byte for byte.  No registered workload touches its
    stack, so neither ``reference.json`` nor the benchmark covers this."""

    TRIALS, SEED = 300, 11
    PLAIN = "12d68aafa24a823ccf9e1f2101a5c42211c2e15fb294f775b1cf9d018873e249"
    RECOVERED = "0e92769019376a4273ba3266db36fc6571da5ae0cfff48e94be632b9bbc4b6de"
    CONFIGS = {
        "cold": ({}, 1, PLAIN),
        "warm": ({"warm_start": True}, 1, PLAIN),
        "jobs2": ({}, 2, PLAIN),
        "recover": ({"protect": "full", "recover": True}, 1, RECOVERED),
        "warm-recover": (
            {"protect": "full", "recover": True, "warm_start": True}, 1, RECOVERED
        ),
        "intermittent": (
            {"fault_model": "intermittent:p=0.5,window=4"}, 1,
            "5712af4702837b00f395f720bb3bf27cfc7ffacbe7ec3b799a01662b39acc177",
        ),
    }

    def campaign(self, config):
        knobs, jobs, _ = self.CONFIGS[config]
        spec = CampaignSpec(source=STACK_KERNEL, trials=self.TRIALS, seed=self.SEED, **knobs)
        campaign = spec.build()
        return campaign, run_campaign(campaign, self.TRIALS, seed=self.SEED, n_jobs=jobs)

    @pytest.mark.parametrize(
        "config",
        [pytest.param(c, marks=needs_fork) if c == "jobs2" else c for c in CONFIGS],
    )
    def test_records_match_the_pinned_digest(self, config):
        campaign, result = self.campaign(config)
        plan = TrialPlan(campaign, self.TRIALS, self.SEED)
        h = hashlib.sha256()
        for i, record in enumerate(result.records):
            entry = json.dumps(plan.entry(i, record), sort_keys=True, separators=(",", ":"))
            h.update(entry.encode() + b"\n")
        assert h.hexdigest() == self.CONFIGS[config][2]

    def test_the_campaign_reaches_the_stack_paths(self, monkeypatch):
        errors, below_end = [], []
        run, store_past = Interpreter.run, Interpreter.store_past

        def record_run(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            errors.append(result.error)
            return result

        def record_store(self, addr):
            below_end.append(addr < self.cells_end)
            return store_past(self, addr)

        monkeypatch.setattr(Interpreter, "run", record_run)
        monkeypatch.setattr(Interpreter, "store_past", record_store)
        self.campaign("cold")
        assert any(e.startswith("StackOverflow: stack exhausted") for e in errors)
        # wild stores both grow the list and trap past the arena end
        assert any(below_end) and not all(below_end)


class TestBudgets:
    def loop_module(self):
        return compile_source(
            """
            output double result[1];
            int n = 100000000;
            void main() {
                double acc = 0.0;
                for (int i = 0; i < n; i = i + 1) { acc = acc + 1.0; }
                result[0] = acc;
            }
            """
        )

    def test_budget_exceeded_is_hang(self):
        interp = Interpreter(self.loop_module())
        result = interp.run(cycle_budget=50_000)
        assert result.status == "hang"
        assert result.cycles > 50_000

    def test_no_budget_means_effectively_unlimited(self):
        interp = Interpreter(self.loop_module())
        interp.set_global_override("n", 10)
        result = interp.run()
        assert result.status == "ok"

    def test_budget_reset_between_runs(self):
        interp = Interpreter(self.loop_module())
        interp.set_global_override("n", 10)
        assert interp.run(cycle_budget=100).status == "hang"
        assert interp.run().status == "ok"


class TestOutputCollection:
    def test_output_log_disabled(self):
        module = compile_source(
            "void main() { print(1.0); print(2.0); }"
        )
        interp = Interpreter(module, collect_output=False)
        interp.run()
        assert interp.output_log == []

    def test_output_log_reset_per_run(self):
        module = compile_source("void main() { print(1.0); }")
        interp = Interpreter(module)
        interp.run()
        interp.run()
        assert interp.output_log == [1.0]


class TestInjectionValidation:
    def test_occurrence_must_be_positive(self):
        module = compile_source("int main() { return 1 + 2; }", optimize=False)
        inst = next(i for i in module.instructions() if i.opcode == "add")
        interp = Interpreter(module)
        with pytest.raises(ValueError, match="1-based"):
            interp.run(injection=InjectionSpec(inst, 0, "once", corrupt=lambda v: v))

    def test_injection_into_uncompiled_instruction_rejected(self):
        from repro.ir import BinaryOperator

        module = compile_source("int main() { return 1; }")
        interp = Interpreter(module)
        dangling = BinaryOperator("add", const_int(1), const_int(2))
        with pytest.raises(KeyError):
            interp.run(injection=flip(dangling, 1, 0))

    def test_missing_entry_function(self):
        module = compile_source("int main() { return 1; }")
        interp = Interpreter(module)
        with pytest.raises(KeyError):
            interp.run(entry="nonexistent")
