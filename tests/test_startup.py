"""Start-up: scipy is loaded at the first forward, not at import.

pytest has imported scipy already, so the check runs in a child interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = textwrap.dedent("""
    import json
    import sys
    from pathlib import Path

    import numpy as np

    from altup import cli, train
    from altup import tensor as T

    def scipy_loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    tmp = Path(sys.argv[1])
    corpus = tmp / "corpus.txt"
    corpus.write_text("mora tel savi dune. kest lor pine vasa. " * 20)
    model = {"d_model": 8, "n_layers": 2, "n_heads": 2, "ffn_hidden": 16,
             "vocab_size": 258, "max_seq_len": 16}
    configs = [
        {"variant": "dense"},
        {"variant": "altup", "altup": {"k": 2}},
        {"variant": "recycled_altup", "altup": {"k": 4}},
        {"variant": "sum_baseline"},
        {"variant": "seq_altup", "seq": {"stride": 2}},
        {"variant": "stride_skip", "seq": {"stride": 2}},
        {"variant": "avg_pool", "seq": {"stride": 2}},
    ] + [{"variant": "dense", "memory": {"n": 258 if lookup == "token_id" else 8,
                                         "rank": 2, "lookup": lookup}}
         for lookup in ("softmax", "token_id", "lsh", "minhash")]
    task = {"name": "char_lm", "corpus_path": str(corpus), "seq_len": 9,
            "n_train": 8, "n_eval": 4}
    for extra in configs:
        cfg = train.config_from_dict({"model": model, "task": task, "seed": 1, **extra})
        train.make_task_data(cfg)
        train.build_model(cfg)
    path = tmp / "config.json"
    path.write_text(json.dumps({"model": model, "task": task, **configs[1]}))
    assert cli.main(["cost", "--config", str(path)]) == 0
    assert cli.main(["census", "--config", str(path)]) == 0
    assert cli.main(["collide", "--seed", "1", "--n", "64", "--l", "8", "--d", "8",
                     "--f", "0.5", "--trials", "20"]) == 0
    assert cli.main(["cost", "--config", str(path), "--set", "variant=nope"]) == 1
    before = scipy_loaded()

    train.build_model(train.config_from_dict({"model": model, "seed": 1})).forward([1, 2, 3])
    from scipy.special import erf

    x = np.random.default_rng(0).standard_normal((4, 5, 6)) * 3.0
    got = T.gelu(T.Tensor(x)).data
    want = x * (0.5 * (1 + erf(x * T._INV_SQRT2)))
    print(json.dumps({"before_forward": before,
                      "after_forward": "scipy.special" in scipy_loaded(),
                      "gelu_bitwise": got.tobytes() == want.tobytes()}))
""")


def test_scipy_is_loaded_at_the_first_forward_not_before(tmp_path):
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # set-up, cost, census, collide and a config error never load scipy
    assert result["before_forward"] == []
    # the first forward does, and gelu is scipy's erf bit for bit
    assert result["after_forward"] and result["gelu_bitwise"]
