import logging

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def pages_corpus(tmp_path_factory):
    """Deterministic planted-duplicate corpus shared by dedup tests."""
    from fastq_dupaway_ray.corpus import CorpusSpec, write_pages

    spec = CorpusSpec(n_base=120, seed=7)
    path = str(tmp_path_factory.mktemp("corpus") / "pages")
    write_pages(path, spec, shards=4)
    return path, spec


@pytest.fixture(scope="session")
def pages_rows(pages_corpus):
    import pyarrow.parquet as pq

    path, _ = pages_corpus
    return pq.read_table(path).to_pylist()


@pytest.fixture()
def executions(monkeypatch):
    """The list of Ray Data executions started while the test runs: one
    entry per ``StreamingExecutor.execute`` call, naming its operators."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    runs: list = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        ops, todo = [], [dag]
        while todo:
            op = todo.pop()
            ops.append(op.name)
            todo.extend(op.input_dependencies)
        runs.append(ops)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return runs
