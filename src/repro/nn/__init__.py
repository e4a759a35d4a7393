"""Neural-network substrate.

A small, self-contained feed-forward stack: float training via numpy and
*exact rational inference* via :mod:`fractions`, so the network handed to
the formal-analysis layers is the network that is actually checked.
"""

from .activations import ACTIVATIONS, Activation, Identity, ReLU
from .init import glorot_uniform, uniform_init
from .layers import DenseLayer
from .network import Network
from .quantize import QuantizedNetwork, quantize_network
from .metrics import accuracy, confusion_matrix, misclassified_indices
from .train import SgdTrainer, TrainResult, train_paper_network
from .serialize import network_from_dict, network_to_dict, load_network, save_network

__all__ = [
    "ACTIVATIONS",
    "Activation",
    "Identity",
    "ReLU",
    "DenseLayer",
    "Network",
    "QuantizedNetwork",
    "quantize_network",
    "accuracy",
    "confusion_matrix",
    "misclassified_indices",
    "SgdTrainer",
    "TrainResult",
    "train_paper_network",
    "glorot_uniform",
    "uniform_init",
    "network_from_dict",
    "network_to_dict",
    "load_network",
    "save_network",
]
