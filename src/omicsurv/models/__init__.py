"""Uniform model contract over the classifier/regressor suite.

Every family is trained through ``fit(spec, x, y)`` and scored through
``predict_scores`` where larger scores favor class 1. ``mlp_regressor`` fits
squared error to the ``y`` it is given and its prediction is the score: through
the Python API that ``y`` may hold observed survival times, while ``cv``,
``search`` and ``report`` give it the 0/1 horizon labels.

``_TABLE`` maps each family to the module that implements it. Every such
module declares ``PARAMS = {key: (type, default)}``, an entry optionally
``(type, default, bound)`` with a lower bound such as ``">= 1"`` that
``typed.read_section`` checks, and ``STATE``, the
dataclass its ``fit`` returns, and exposes ``fit(x, y, params, seed)``
(``params`` complete and typed; the MLP module also takes the ``task`` its
``_TABLE`` entry passes), ``scores(state, x)`` and ``threshold(state)`` (the
hard-label cut). A module may also declare
``check_params(params)``, which rejects values that are well typed and meet
their bounds but are still out of range or do not fit together (``svm_rbf``'s
``C`` within its solver's margin; ``rp_ensemble``'s (0, 1) ranges and its base
hyperparameters against its base family),
``width_limit(params)``, the fewest feature columns it can fit with
``params`` (``rp_ensemble``'s ``projected_dim``), which ``check_width`` below
compares with a table's width, ``upgrade(state)``, which turns the ``state``
object of an older model file into the current layout (``random_forest``'s
format-1 trees),
and ``holdout_errors(z_tr, y_tr, z_ho, y_ho, params)``, which fits one model
per slice of a stack of B training tables (B, n, d) and returns each one's
misclassification rate on the matching holdout slice, shape (B,), as one
pass over the stack. ``holdout_errors`` below falls back to one ``fit`` and
``predict_labels`` per slice for a family without the hook.

A module may also declare ``fit_folds(x, y, train_sets, params, seed,
**options)``, which trains one state per row subset ``x[rows], y[rows]`` of
one table, with the same bits as one ``fit`` per subset (``rp_ensemble``
draws each group once for all subsets; the MLPs train equal-sized subsets as
one stack). Its list stops at the lowest-numbered subset whose fit fails,
which gets the exception it raised in place of a state. ``fit_folds`` below
calls the hook when the family has one and otherwise fits one subset at a
time; cross-validation trains its folds through it.

One codec writes and reads every family's state. ``state_jsonable`` emits
the dataclass fields in declaration order, each under its name or the
``key`` of its field metadata: an array as nested lists, a nested
``TrainedModel`` as its ``to_jsonable``, a list item by item.
``state_from_jsonable`` rebuilds each field from its annotation. A field
marked ``metadata={"saved": False}``, such as a solver diagnostic, is not
written, and a loaded state holds its dataclass default.
"""

from __future__ import annotations

import json
import typing
from dataclasses import Field, dataclass, field, fields

import numpy as np

from .. import rpensemble
from ..errors import ConfigError, DataError
from ..typed import read_section
from . import forest, gaussian_nb, logistic, mlp, svm

# family -> (module, extra keyword arguments to its fit). Functions are looked up
# on the module at call time, so rebinding a module attribute reaches every call.
_TABLE = {
    "gaussian_nb": (gaussian_nb, {}),
    "svm_rbf": (svm, {}),
    "l1_logistic": (logistic, {}),
    "random_forest": (forest, {}),
    "rectangle_mlp": (mlp, {"task": "classify"}),
    "mlp_regressor": (mlp, {"task": "regress"}),
    "rp_ensemble": (rpensemble, {}),
}

FAMILIES = tuple(_TABLE)

# Format 2 stores the forest as flat arrays. Format 1 differs only in its
# nested forest trees, which forest.upgrade flattens, so it still loads.
MODEL_FORMAT_VERSION = 2
_READABLE_FORMATS = (1, MODEL_FORMAT_VERSION)


def check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ConfigError(f"unknown model family {family!r}; valid: {FAMILIES}")


def is_classifier(family: str) -> bool:
    """Whether ``family`` fits 0/1 labels and has a hard-label threshold;
    the time regressor does neither."""
    return _TABLE[family][1].get("task") != "regress"


def read_params(family: str, hyperparameters: dict) -> dict:
    """The family's ``PARAMS`` defaults, overridden by ``hyperparameters``,
    typed and checked; an undeclared key, a wrong type, a value outside its
    declared bound or one the family's ``check_params`` rejects is a
    ConfigError naming the family."""
    module = _TABLE[family][0]
    try:
        params = read_section(hyperparameters, "", module.PARAMS)
        if hasattr(module, "check_params"):
            module.check_params(params)
    except ConfigError as exc:
        raise ConfigError(f"{family}: {exc}") from None
    return params


def check_width(family: str, hyperparameters: dict, width: int, table: str) -> None:
    """A ConfigError naming ``family`` and ``table`` if the family cannot fit
    ``width`` feature columns with ``hyperparameters``."""
    module = _TABLE[family][0]
    if hasattr(module, "width_limit"):
        needed = module.width_limit(read_params(family, hyperparameters))
        if width < needed:
            raise ConfigError(f"{family} needs at least {needed} feature columns "
                              f"with these parameters; {table} has {width}")


@dataclass(frozen=True)
class ModelSpec:
    family: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        check_family(self.family)


@dataclass
class TrainedModel:
    spec: ModelSpec
    n_features: int
    state: object


def _validate_training_data(n: int, finite: bool, y: np.ndarray, classifier: bool):
    """Checks a training table of ``n`` rows, or a stack of such tables, whose
    values are all finite if ``finite``, against its targets ``y``: for a
    classifier, ``y`` must hold both labels 0 and 1 and no other."""
    if n != len(y):
        raise DataError(f"feature/target length mismatch: {n} vs {len(y)}")
    if n < 2:
        raise DataError("need at least 2 training samples")
    if not finite:
        raise DataError("non-finite training features")
    if not classifier:
        return
    zero, one = y == 0, y == 1
    if not (zero | one).all():
        raise DataError(f"classifier labels must be 0 or 1, got {np.unique(y)[:10].tolist()}")
    if not (zero.any() and one.any()):
        raise DataError("single-class training set")


def fit(spec: ModelSpec, x: np.ndarray, y: np.ndarray) -> TrainedModel:
    """Train one model. ``y`` is 0/1 for classifiers; mlp_regressor fits
    squared error to whatever real targets it is given."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    module, options = _TABLE[spec.family]
    params = read_params(spec.family, spec.hyperparameters)
    _validate_training_data(x.shape[-2], np.all(np.isfinite(x)), y,
                            classifier=is_classifier(spec.family))
    try:
        state = module.fit(x, y, params, spec.seed, **options)
    except ConfigError as exc:
        raise ConfigError(f"{spec.family}: {exc}") from None
    return TrainedModel(spec=spec, n_features=x.shape[1], state=state)


def has_fit_folds(family: str) -> bool:
    """Whether ``family`` trains the subsets of ``fit_folds`` in one call."""
    return hasattr(_TABLE[family][0], "fit_folds")


def fit_folds(spec: ModelSpec, x: np.ndarray, y: np.ndarray, train_sets):
    """Yield ``fit(spec, x[rows], y[rows])`` for each ``rows`` of
    ``train_sets`` in order, bit for bit; a subset whose fit fails raises its
    error when its model is asked for.

    Without a ``fit_folds`` hook each subset is fitted when its model is asked
    for. With the hook every subset up to the first failing one is fitted at
    the first model asked for; x's finiteness is checked once, and each
    subset's targets separately. Either way a caller that scores each model
    before asking for the next meets the errors in subset order.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if len(x) != len(y):
        raise DataError(f"feature/target length mismatch: {len(x)} vs {len(y)}")
    module, options = _TABLE[spec.family]
    if not hasattr(module, "fit_folds"):
        for rows in train_sets:
            yield fit(spec, x[rows], y[rows])
        return
    params = read_params(spec.family, spec.hyperparameters)
    finite_rows = np.isfinite(x).all(axis=1)
    checked, failure = [], None
    for rows in train_sets:
        try:  # no subset after the first failing one is fitted
            _validate_training_data(len(rows), finite_rows[rows].all(), y[rows],
                                    classifier=is_classifier(spec.family))
        except DataError as exc:
            failure = exc
            break
        checked.append(rows)
    try:  # with no subset to fit, the family's own checks must not run first
        states = (module.fit_folds(x, y, checked, params, spec.seed, **options)
                  if checked else [])
        for state in states:
            if isinstance(state, Exception):
                raise state
            yield TrainedModel(spec=spec, n_features=x.shape[1], state=state)
    except ConfigError as exc:
        raise ConfigError(f"{spec.family}: {exc}") from None
    if failure is not None:
        raise failure


def holdout_errors(spec: ModelSpec, z_tr: np.ndarray, y_tr: np.ndarray,
                   z_ho: np.ndarray, y_ho: np.ndarray) -> np.ndarray:
    """Misclassification rate on ``(z_ho[b], y_ho)`` of ``spec`` fitted on
    ``(z_tr[b], y_tr)``, for each slice b of the stacks: shape (B,)."""
    module = _TABLE[spec.family][0]
    if not hasattr(module, "holdout_errors"):
        return np.array([np.mean(predict_labels(fit(spec, tr, y_tr), ho) != y_ho)
                         for tr, ho in zip(z_tr, z_ho)])
    params = read_params(spec.family, spec.hyperparameters)
    _validate_training_data(z_tr.shape[-2], np.all(np.isfinite(z_tr)), y_tr,
                            classifier=True)
    return module.holdout_errors(z_tr, y_tr, z_ho, y_ho, params)


def predict_scores(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.n_features:
        raise DataError(
            f"feature width {x.shape[1]} does not match training width "
            f"{model.n_features}"
        )
    return _TABLE[model.spec.family][0].scores(model.state, x)


def predict_labels(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Hard 0/1 labels at the family's decision threshold."""
    threshold = _TABLE[model.spec.family][0].threshold(model.state)
    return (predict_scores(model, x) >= threshold).astype(np.int64)


def _saved_fields(state_or_class) -> list:
    return [f for f in fields(state_or_class) if f.metadata.get("saved", True)]


def _key(f: Field) -> str:
    return f.metadata.get("key", f.name)


def _lookup(d, key: str, prefix: str = ""):
    if not isinstance(d, dict) or key not in d:
        raise DataError(f"missing key {prefix + key!r}")
    return d[key]


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, TrainedModel):
        return to_jsonable(value)
    if isinstance(value, list):
        return [_encode(item) for item in value]
    return value


def _decode(hint, value, key: str):
    if hint is np.ndarray:
        try:
            array = np.array(value)
        except ValueError:  # ragged nested lists
            array = None
        if array is None or array.dtype.kind not in "biuf":  # bool, (u)int, float
            raise DataError(f"key {key!r}: expected a numeric array")
        return array
    if hint is TrainedModel:
        return from_jsonable(value)
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return [_decode(item, v, f"{key}[{i}]") for i, v in enumerate(value)]
    return value


def state_jsonable(state) -> dict:
    """The saved fields of a family's state dataclass as JSON values, in
    declaration order."""
    return {_key(f): _encode(getattr(state, f.name)) for f in _saved_fields(state)}


def state_from_jsonable(cls, d: dict):
    """The ``cls`` instance that ``state_jsonable`` wrote as ``d``; its unsaved
    fields hold their defaults. A missing key, or an array field that is not
    numeric, is a DataError naming it."""
    hints = typing.get_type_hints(cls)
    return cls(**{f.name: _decode(hints[f.name], _lookup(d, _key(f), "state."),
                                  f"state.{_key(f)}")
                  for f in _saved_fields(cls)})


def to_jsonable(model: TrainedModel) -> dict:
    """Structured-text parameter dump; format documented in the README."""
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "family": model.spec.family,
        "hyperparameters": model.spec.hyperparameters,
        "seed": model.spec.seed,
        "n_features": model.n_features,
        "state": state_jsonable(model.state),
    }


def from_jsonable(payload: dict) -> TrainedModel:
    """The model ``to_jsonable`` wrote as ``payload``, or a format-1 payload;
    a missing key, an unknown family or format is a DataError naming it."""
    version = _lookup(payload, "format_version")
    if version not in _READABLE_FORMATS:
        raise DataError(f"unsupported model format {version}")
    family = _lookup(payload, "family")
    if family not in FAMILIES:
        raise DataError(f"key 'family': unknown model family {family!r}; "
                        f"valid: {FAMILIES}")
    module = _TABLE[family][0]
    state = _lookup(payload, "state")
    if hasattr(module, "upgrade"):
        state = module.upgrade(state)
    spec = ModelSpec(family=family, hyperparameters=_lookup(payload, "hyperparameters"),
                     seed=_lookup(payload, "seed"))
    return TrainedModel(spec=spec, n_features=_lookup(payload, "n_features"),
                        state=state_from_jsonable(module.STATE, state))


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_jsonable(model), fh)


def load_model(path) -> TrainedModel:
    """The model ``save_model`` wrote to ``path``; a file that is not such a
    model file, or whose model cannot score a row of its ``n_features``
    zeros, is a DataError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{path}: not a JSON model file: {exc}") from None
    try:
        model = from_jsonable(payload)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    # a state whose arrays do not fit together or n_features fails here, not
    # when the caller first scores with it
    try:
        predict_scores(model, np.zeros((1, model.n_features)))
    except (ArithmeticError, LookupError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"{path}: state cannot score a row of n_features="
                        f"{model.n_features!r}: {exc}") from None
    return model
