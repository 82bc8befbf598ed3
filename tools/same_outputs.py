"""Check that the working tree gives the same CLI outputs as a git revision.

    python tools/same_outputs.py REV

Checks out REV with ``git worktree add --detach`` into a temporary
directory, runs one fixed manifest of `pne` commands under
``PNE_DETERMINISTIC=1`` against that tree's `src` and then against the
working tree's, and compares every output file byte for byte. It prints one
sha256 per file, and for a text file that differs, the first line that
differs. The worktree is removed afterwards. Exit status: 0 when every file
is identical, 1 when any differs or exists on one side only, 2 when a
command of the manifest fails.

The manifest covers both tasks on a 2-level network with drop path, three
embeddings (fixed, learnable, none), both neighborhoods and two seeds:
`pne grid` for each task and with ``--seeds 3``, `sigma-sweep`,
`neigh-stats`, `pne train` for each task, `pne eval` of each trained
`model.bin`, and `pne gradcheck`. Each command's stdout is an output file
too. Compare the two sides on one machine: OpenBLAS picks its kernels by
CPU, so digests taken on another machine may differ without a defect.

Run from the repository root.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

NETWORK = """\
[network]
widths = 4, 6
blocks = 1, 1
initial_cell = 0.3
embed_dim = 4
mlp_dim = 4
drop_path_max = 0.1
[training]
epochs = 1
batch_size = 4
"""

CONFIGS = {
    "cls.cfg": """\
[experiment]
seeds = 0, 1
embeddings = kp:gaussian, mlp:relu, none
neighborhoods = ball_query, knn
""" + NETWORK + """\
[data]
train_per_class = 2
test_per_class = 1
points = 48
[sigma_sweep]
factors = 0.5, 1.0
""",
    "seg.cfg": """\
[experiment]
task = segmentation
seeds = 0, 1
embeddings = kp:gaussian, mlp:relu, none
neighborhoods = ball_query, knn
""" + NETWORK + """\
[data]
num_scenes = 4
points = 48
""",
}

# (name, argv): paths are relative to the side's output directory, so that
# both sides print the same ones
MANIFEST = [
    ("grid_cls", ["grid", "--config", "../cfg/cls.cfg", "--out", "grid_cls"]),
    ("grid_seg", ["grid", "--config", "../cfg/seg.cfg", "--out", "grid_seg"]),
    ("grid_seeds3", ["grid", "--config", "../cfg/cls.cfg", "--seeds", "3", "--out", "grid_seeds3"]),
    ("sweep", ["sigma-sweep", "--config", "../cfg/cls.cfg", "--out", "sweep"]),
    ("neigh", ["neigh-stats", "--config", "../cfg/cls.cfg", "--out", "neigh"]),
    ("train_cls", ["train", "--config", "../cfg/cls.cfg", "--out", "train_cls"]),
    ("train_seg", ["train", "--config", "../cfg/seg.cfg", "--embedding", "mlp:relu",
                   "--neighborhood", "knn", "--out", "train_seg"]),
    ("eval_cls", ["eval", "--config", "../cfg/cls.cfg", "--params", "train_cls/model.bin"]),
    ("eval_seg", ["eval", "--config", "../cfg/seg.cfg", "--embedding", "mlp:relu",
                  "--neighborhood", "knn", "--params", "train_seg/model.bin"]),
    ("gradcheck", ["gradcheck"]),
]


class CommandFailed(Exception):
    pass


def run_manifest(src, out):
    """Run every manifest command with `src` first on the import path and
    `out` as the working directory; each stdout goes to `out/<name>.stdout`."""
    out.mkdir(parents=True)
    env = dict(os.environ, PNE_DETERMINISTIC="1", PYTHONPATH=str(src))
    for name, argv in MANIFEST:
        done = subprocess.run([sys.executable, "-m", "pne.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise CommandFailed(f"{src}: pne {' '.join(argv)} exited {done.returncode}\n"
                                f"{done.stderr[-2000:]}")
        (out / f"{name}.stdout").write_text(done.stdout)


def _files(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def first_difference(a, b):
    """(line number, line of a, line of b) of the first line that differs
    between the texts `a` and `b`, a missing line read as None; None when
    either is not UTF-8 or they are equal."""
    try:
        lines_a, lines_b = a.decode("utf-8").splitlines(), b.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return None
    for i in range(max(len(lines_a), len(lines_b))):
        la = lines_a[i] if i < len(lines_a) else None
        lb = lines_b[i] if i < len(lines_b) else None
        if la != lb:
            return i + 1, la, lb
    return None


def compare(parent, change):
    """(report lines, number of files that differ or exist on one side only)
    for the output trees `parent` and `change`."""
    lines, differ = [], 0
    files_p, files_c = _files(parent), _files(change)
    for rel in sorted(files_p | files_c):
        if rel not in files_c or rel not in files_p:
            differ += 1
            lines.append(f"only in {'parent' if rel in files_p else 'change'}  {rel}")
            continue
        a, b = (parent / rel).read_bytes(), (change / rel).read_bytes()
        da, db = hashlib.sha256(a).hexdigest(), hashlib.sha256(b).hexdigest()
        if da == db:
            lines.append(f"same     {da}  {rel}")
            continue
        differ += 1
        lines.append(f"DIFFERS  {da}  {rel} (parent)")
        lines.append(f"         {db}  {rel} (change)")
        line = first_difference(a, b)
        if line is not None:
            lines.append(f"         line {line[0]}: parent {line[1]!r}")
            lines.append(f"         line {line[0]}: change {line[2]!r}")
    total = len(files_p | files_c)
    lines.append(f"{differ} of {total} files differ" if differ else
                 f"all {total} files identical")
    return lines, differ


def main(argv):
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py REV", file=sys.stderr)
        return 2
    rev, repo = argv[1], pathlib.Path.cwd()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = pathlib.Path(tmp)
        tree = tmp / "parent_tree"
        if subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(tree), rev],
                          cwd=repo).returncode != 0:
            return 2
        try:
            cfg = tmp / "cfg"
            cfg.mkdir()
            for name, text in CONFIGS.items():
                (cfg / name).write_text(text)
            run_manifest(tree / "src", tmp / "parent")
            run_manifest(repo / "src", tmp / "change")
        except CommandFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=repo, check=True)
        lines, differ = compare(tmp / "parent", tmp / "change")
    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
