"""Only the networks know their task: no other code of `pne` reads a
prepared sample's targets (`<x>.label`, `<x>.clouds[...].labels`), the
training settings are declared once, in `TrainConfig`, which
`ExperimentConfig` extends, and the network's shape once, in
`NetworkSettings`, which `ExperimentConfig` and `EncoderConfig` extend."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pne"
OWNER = "network.py"


def target_reads(source):
    """Line numbers that load `<x>.label` other than as a call, or load
    `<x>.clouds[...].labels`."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        if node.attr == "label" and id(node) not in called:
            lines.append(node.lineno)
        elif (node.attr == "labels" and isinstance(node.value, ast.Subscript)
              and isinstance(node.value.value, ast.Attribute)
              and node.value.value.attr == "clouds"):
            lines.append(node.lineno)
    return sorted(lines)


def test_detects_target_reads():
    source = ('labels = prep.clouds[0].labels if segmentation else [prep.label]\n'
              'family, variant = spec.label()\n'
              'prep.label = label\n'
              'n = len(cloud.labels)\n'
              'y = f(p.label)\n'
              'z = self.prep.clouds[-1].labels\n')
    assert target_reads(source) == [1, 1, 5, 6]


def test_only_networks_read_targets():
    found = {path.name: target_reads(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != OWNER}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _class(path, name):
    return next(node for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.ClassDef) and node.name == name)


def _own_fields(cls):
    return {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}


def test_training_settings_are_declared_once():
    experiment = _class(SRC / "config.py", "ExperimentConfig")
    recipe = _class(SRC / "training.py", "TrainConfig")
    shape = _class(SRC / "config.py", "NetworkSettings")
    assert [base.id for base in experiment.bases] == ["TrainConfig", "NetworkSettings"]
    assert _own_fields(recipe) and _own_fields(experiment) and _own_fields(shape)
    assert _own_fields(experiment).isdisjoint(_own_fields(recipe) | _own_fields(shape))
    assert _own_fields(recipe).isdisjoint(_own_fields(shape))


def test_network_settings_are_declared_once():
    encoder = _class(SRC / "network.py", "EncoderConfig")
    shape = _class(SRC / "config.py", "NetworkSettings")
    assert [base.id for base in encoder.bases] == ["NetworkSettings"]
    assert _own_fields(encoder).isdisjoint(_own_fields(shape))
