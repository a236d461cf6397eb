"""A real kill: SIGKILL inside a fetch, and a resume in a fresh interpreter.

Every other kill in the suite is an exception raised in-process, which
leaves the interpreter, its hash seed and its open files alive.  Here a
durable crawl runs in a child process and kills itself with SIGKILL from
inside a fetch between two checkpoints; what it buffered since the last
sync dies with it.  A second child, under another ``PYTHONHASHSEED``,
resumes the crawl from the checkpoint directory and runs it to the end.
A third, under a third hash seed, runs the same crawl without a kill.
The resumed crawl must be that crawl: the same URLs in the same order,
the same relevance floats (compared by ``repr``), the same top hubs.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.checkpoint import CheckpointManager

#: The crawl: durable, K=4, distilling every 20 pages and saving every 25.
CHILD = """
import json, os, signal, sys
from conftest import GOOD_TOPIC, small_web_config
from repro.core.config import FocusConfig
from repro.core.system import FocusSystem
from repro.crawler.engine import CrawlerConfig
from repro.webgraph.fetch import Fetcher
from repro.webgraph.graph import SyntheticWebBuilder

mode, directory, kill_at = sys.argv[1], sys.argv[2], int(sys.argv[3])
web = SyntheticWebBuilder(small_web_config()).build()
system = FocusSystem.from_web(
    web, [GOOD_TOPIC], FocusConfig(good_topics=(GOOD_TOPIC,), examples_per_leaf=12, seed_count=8)
)
system.train()
config = CrawlerConfig(max_pages=140, distill_every=20, checkpoint_every=25, batch_size=4)
if mode == "resume":
    result = system.crawl(resume_from=directory)
else:
    if mode == "kill":
        fetch, calls = Fetcher.fetch, [0]

        def killing(self, url):
            calls[0] += 1
            if calls[0] == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
            return fetch(self, url)

        Fetcher.fetch = killing
    result = system.crawl(crawler_config=config, fetch_failure_seed=3, checkpoint_dir=directory)
trace = result.trace
print(json.dumps({
    "urls": trace.fetched_urls,
    "relevance": [repr(value) for value in trace.relevance_series()],
    "hubs": [[url, repr(score)] for url, score in result.top_hubs(10)],
}))
"""

#: The fetch attempt the first child dies in: past the third save (75
#: pages), short of the fourth.
KILL_AT = 98


def run_child(mode, directory, hash_seed):
    tests = Path(__file__).resolve().parents[1]
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(tests)])
    return subprocess.run(
        [sys.executable, "-c", CHILD, mode, str(directory), str(KILL_AT)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_a_crawl_sigkilled_in_a_fetch_resumes_as_the_uninterrupted_crawl(tmp_path):
    killed = run_child("kill", tmp_path / "killed", hash_seed=1)
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    assert not killed.stdout
    database, _saved = CheckpointManager.load(str(tmp_path / "killed"))
    saved = database.sql("select count(*) as n from CRAWL where status = 'visited'")[0]["n"]
    database.close()
    assert 75 <= saved < 98  # the last save came before the kill
    resumed = run_child("resume", tmp_path / "killed", hash_seed=987)
    assert resumed.returncode == 0, resumed.stderr
    whole = run_child("whole", tmp_path / "whole", hash_seed=4242)
    assert whole.returncode == 0, whole.stderr
    reference = json.loads(whole.stdout)
    assert len(reference["urls"]) == 140 and reference["hubs"]
    assert json.loads(resumed.stdout) == reference
