"""Shared fixtures: small raw datasets and a ready ViDa session."""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import ViDa
from repro.formats import write_array, write_csv, write_workbook


@pytest.fixture(scope="session", autouse=True)
def no_stray_workers():
    """Every session, pool and server a test starts is closed by that test:
    when the run ends no worker process and no non-daemon thread is left."""
    yield

    def running():
        return multiprocessing.active_children() + [
            t for t in threading.enumerate()
            if t is not threading.main_thread() and not t.daemon]

    # a pool shut down without waiting may still be reaping its workers
    for proc_or_thread in running():
        proc_or_thread.join(timeout=5)
    stray = running()
    assert not stray, f"left running after the test session: {stray}"


@pytest.fixture()
def inline_morsels(monkeypatch):
    """Sessions get no worker pool: a parallel scan still plans, splits and
    runs one kernel-spec task per morsel, merged in morsel order, but inline
    on the calling thread instead of in spawned workers — a DoP
    differential that costs no interpreter start-up
    (``tests/core/test_process_backend.py`` runs the same path on real
    worker processes). With no processes to start or feed, the planner is
    told spawn and IPC cost nothing, so it shards every scan whose work
    pays for its morsels, however small."""
    from repro.core.optimizer import cost

    monkeypatch.setattr(ViDa, "_worker_pool", lambda self: None)
    monkeypatch.setattr(cost, "PROCESS_SPAWN_COST", 0.0)
    monkeypatch.setattr(cost, "PROCESS_MORSEL_IPC_COST", 0.0)


@pytest.fixture()
def executor_pool():
    """A stand-in for ``procpool.WorkerPool`` whose executor runs kernels on
    threads: the scheduler's contracts (morsel order, bounded window, stop,
    failure) hold for any executor, and this one neither spawns interpreters
    nor needs picklable kernels."""

    class Pool:
        def __init__(self):
            self.ex = ThreadPoolExecutor(max_workers=4)

        def executor(self):
            return self.ex

    pool = Pool()
    yield pool
    pool.ex.shutdown(wait=True)


@pytest.fixture()
def patients_csv(tmp_path):
    path = tmp_path / "patients.csv"
    rows = [
        (i, 20 + (i * 7) % 60, "m" if i % 2 else "f",
         ["geneva", "lausanne", "zurich"][i % 3],
         round(40 + (i % 11) * 1.5, 2) if i % 13 else None)
        for i in range(60)
    ]
    write_csv(path, ["id", "age", "gender", "city", "protein"], rows)
    return str(path)


@pytest.fixture()
def genetics_csv(tmp_path):
    path = tmp_path / "genetics.csv"
    rows = [(i, i % 3, (i * 5) % 3, i % 2) for i in range(60)]
    write_csv(path, ["id", "snp_a", "snp_b", "snp_c"], rows)
    return str(path)


@pytest.fixture()
def brain_json(tmp_path):
    path = tmp_path / "brain.json"
    with open(path, "w") as fh:
        for i in range(60):
            obj = {
                "id": i,
                "quality": round(0.5 + (i % 10) / 20, 2),
                "volume_total": round(100 + i * 1.5, 1),
                "meta": {"pipeline": ["fsl", "spm"][i % 2], "version": i % 4},
                "regions": [
                    {"name": f"BA{r}", "volume": round(10 + r + i * 0.1, 2)}
                    for r in range(3)
                ],
            }
            fh.write(json.dumps(obj) + "\n")
    return str(path)


@pytest.fixture()
def array_file(tmp_path):
    path = tmp_path / "grid.varr"
    values = [(float(i + j), float(i * j)) for i in range(4) for j in range(5)]
    write_array(path, (4, 5), [("elevation", "float"), ("temperature", "float")],
                values)
    return str(path)


@pytest.fixture()
def xls_file(tmp_path):
    path = tmp_path / "book.vxls"
    write_workbook(path, [
        ("trades", ["id", "amount", "desk"],
         [(i, round(100.5 * (i + 1), 2), ["fx", "rates"][i % 2]) for i in range(10)]),
        ("risk", ["id", "var"], [(i, i * 0.1) for i in range(5)]),
    ])
    return str(path)


@pytest.fixture()
def db(patients_csv, genetics_csv, brain_json):
    session = ViDa()
    session.register_csv("Patients", patients_csv)
    session.register_csv("Genetics", genetics_csv)
    session.register_json("BrainRegions", brain_json)
    return session
