"""Simulated HTTPS web-server environment (Apache + mod_ssl + Linux stand-in)."""

from .capacity import (
    LoadResult, LoadSimulator, MixedLoadSimulator, farm_requests_per_second,
    requests_per_second,
)
from .clientpool import ClientPool
from .costs import DEFAULT_COSTS, SystemCostModel
from .counters import RunCounters
from .farm import (
    PARTITIONED, POLICIES, SHARED, TOPOLOGIES,
    FarmResult, LeastConnectionsPolicy, LoadBalancerPolicy,
    RoundRobinPolicy, ServerFarm, SessionAffinityPolicy, WorkerStats,
)
from .httpd import (
    ApacheWorker, HttpError, HttpRequest, build_request, build_response,
    parse_request, parse_response,
)
from .overload import (
    ABANDON_HELLO, ABANDON_MID_KX, ABANDON_MODES, ADMISSION_POLICIES,
    AcceptQueue, AdmissionPolicy, AdversarialWorkload, DeadlineShedPolicy,
    DropTailPolicy, PressureSignal, ResumptionPreferredPolicy, SuitePolicy,
    suite_cost_per_kb,
)
from .simulator import SimulationResult, WebServerSimulator, run_experiment
from .workload import Request, RequestWorkload, document_bytes

__all__ = [
    "LoadResult", "LoadSimulator", "MixedLoadSimulator",
    "farm_requests_per_second", "requests_per_second",
    "ClientPool",
    "DEFAULT_COSTS", "SystemCostModel", "RunCounters",
    "PARTITIONED", "POLICIES", "SHARED", "TOPOLOGIES",
    "FarmResult", "LeastConnectionsPolicy", "LoadBalancerPolicy",
    "RoundRobinPolicy", "ServerFarm", "SessionAffinityPolicy",
    "WorkerStats",
    "ApacheWorker", "HttpError", "HttpRequest", "build_request",
    "build_response", "parse_request", "parse_response",
    "ABANDON_HELLO", "ABANDON_MID_KX", "ABANDON_MODES",
    "ADMISSION_POLICIES", "AcceptQueue", "AdmissionPolicy",
    "AdversarialWorkload", "DeadlineShedPolicy", "DropTailPolicy",
    "PressureSignal", "ResumptionPreferredPolicy", "SuitePolicy",
    "suite_cost_per_kb",
    "SimulationResult", "WebServerSimulator", "run_experiment",
    "Request", "RequestWorkload", "document_bytes",
]
