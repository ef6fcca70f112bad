"""Compile once, evaluate anywhere: the zero-copy mmap compiled store.

The paper's workflow splits provenance work across machines: a strong
producer compresses/compiles once, and many consumers answer what-if queries
cheaply.  PR 7's compiled store makes that split real for the *compiled*
arrays: ``CobraSession.compile_to_store`` persists the width-group arrays
and the sparse-delta CSR index as one 64-byte-aligned binary file, and any
process then ``open_store``s it — a header parse plus one read-only
``numpy.memmap``, no recompilation, with every mapping of the same file
sharing one page-cache copy of the data.

This example runs the whole split locally:

1. a producer session compiles the telephony workload and writes the store;
2. two consumer *processes* open the store and evaluate half the sweep each
   — note their open time vs the producer's compile time;
3. a consumer session adopts the store with ``open_from_store`` (backend and
   provenance fingerprint are validated) and runs a sharded sweep whose
   persistent worker pool ships the adopted store's *path* per task, so
   no temporary copy of the compiled set is spilled.

Run with ``PYTHONPATH=src python examples/compiled_store.py``.
"""

import multiprocessing
import os
import tempfile
import time

from repro.batch.planner import ScenarioBatch
from repro.engine.session import CobraSession
from repro.provenance.store import open_store
from repro.provenance.valuation import Valuation
from repro.workloads.telephony import (
    TelephonyConfig,
    generate_revenue_provenance,
    telephony_scenario_sweep,
)


def consumer(store_path, scenarios, out):
    """A consumer process: no symbolic provenance, no recompilation."""
    start = time.perf_counter()
    compiled = open_store(store_path)
    open_ms = (time.perf_counter() - start) * 1e3
    batch = ScenarioBatch(scenarios, compiled.variables)
    results = compiled.evaluate_matrix(batch.valuation_matrix(Valuation({})))
    out.put((os.getpid(), open_ms, results.shape))


def main() -> None:
    config = TelephonyConfig(num_customers=20_000, num_zips=200)
    provenance = generate_revenue_provenance(config)
    scenarios = telephony_scenario_sweep(200, months=config.months)
    print(
        f"telephony provenance: {provenance.size()} monomials, "
        f"{provenance.num_variables()} variables, {len(provenance)} groups\n"
    )

    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "telephony.cps")

        # 1. The producer compiles once and persists the compiled arrays.
        producer = CobraSession(provenance)
        start = time.perf_counter()
        producer.compile_to_store(store_path)
        compile_ms = (time.perf_counter() - start) * 1e3
        print(
            f"producer: compiled + persisted in {compile_ms:.1f} ms "
            f"({os.path.getsize(store_path) / 1e6:.2f} MB store)"
        )

        # 2. Two processes map the same file and split the sweep.
        queue = multiprocessing.Queue()
        workers = [
            multiprocessing.Process(
                target=consumer, args=(store_path, half, queue)
            )
            for half in (scenarios[:100], scenarios[100:])
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        for _ in workers:
            pid, open_ms, shape = queue.get()
            print(
                f"consumer pid {pid}: opened the store in {open_ms:.2f} ms "
                f"and evaluated {shape[0]} scenarios x {shape[1]} groups"
            )

        # 3. Or stay high-level: a session adopts the store (backend +
        # fingerprint checked) and sharded evaluate_many ships the path.
        consumer_session = CobraSession(provenance)
        consumer_session.open_from_store(store_path)
        report = consumer_session.evaluate_many(scenarios, processes=2)
        print("\nsharded sweep off the mapped store, top scenarios:")
        print(report.render_text(max_rows=3))


if __name__ == "__main__":
    main()
