"""Control-plane models: reactive controllers, update channels, and the
fail-static controller session (lossy channel, §6.4 fail modes)."""

from repro.controller.channels import (
    CLI_CHANNEL,
    CONTROLLER_CHANNEL,
    LossyChannel,
    RELIABLE_CHANNEL,
    UpdateChannel,
    setup_time,
)
from repro.controller.gateway_controller import GatewayController
from repro.controller.learning_switch import LearningSwitch
from repro.controller.session import (
    ControllerSession,
    FailMode,
    SessionHealth,
    SessionState,
)

__all__ = [
    "UpdateChannel",
    "LossyChannel",
    "CLI_CHANNEL",
    "CONTROLLER_CHANNEL",
    "RELIABLE_CHANNEL",
    "setup_time",
    "GatewayController",
    "LearningSwitch",
    "ControllerSession",
    "FailMode",
    "SessionHealth",
    "SessionState",
]
