"""Shared fixtures: canonical contracts from the paper and chain helpers."""

from __future__ import annotations

import pytest

from repro.chain import Chain
from repro.chain.transactions import Transaction
from repro.compiler import compile_source, encode_call

#: Figure 1 of the paper, translated to MiniSol.
CROWDSALE_SOURCE = """
contract Crowdsale {
    uint256 phase = 0;
    uint256 goal;
    uint256 invested;
    address owner;
    mapping(address => uint256) invests;

    constructor() public {
        goal = 100 ether;
        invested = 0;
        owner = msg.sender;
    }
    function invest(uint256 donations) public payable {
        if (invested < goal) {
            invests[msg.sender] += donations;
            invested += donations;
            phase = 0;
        } else {
            phase = 1;
        }
    }
    function refund() public {
        if (phase == 0) {
            msg.sender.transfer(invests[msg.sender]);
            invests[msg.sender] = 0;
        }
    }
    function withdraw() public {
        if (phase == 1) {
            owner.transfer(invested);
        }
    }
}
"""

#: Figure 4 of the paper (guess-number game), translated to MiniSol.
GAME_SOURCE = """
contract Game {
    mapping(address => uint256) balance;

    function guessNum(uint256 number) public payable {
        uint256 random = uint256(keccak256(abi.encodePacked(block.timestamp, now))) % 200;
        require(msg.value == 88 finney);
        if (number < random) {
            uint256 luckyNum = number % 2;
            if (luckyNum == 0) {
                balance[msg.sender] += msg.value * 10;
            } else {
                balance[msg.sender] += msg.value * 5;
            }
        }
    }
}
"""

ALICE = 0xA11CE
BOB = 0xB0B


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running end-to-end test (deselect with "
                   "-m 'not slow')")


@pytest.fixture(scope="session")
def crowdsale_artifact():
    return compile_source(CROWDSALE_SOURCE)


@pytest.fixture(scope="session")
def game_artifact():
    return compile_source(GAME_SOURCE)


@pytest.fixture
def chain():
    chain = Chain()
    chain.create_account(ALICE)
    chain.create_account(BOB)
    return chain


class ContractHandle:
    """Test convenience: deploy once, call by function name."""

    def __init__(self, chain: Chain, artifact, sender: int = ALICE,
                 value: int = 0, ctor_args: bytes = b"") -> None:
        self.chain = chain
        self.artifact = artifact
        self.deployed = chain.deploy(artifact, ctor_args=ctor_args,
                                     sender=sender, value=value)
        self.address = self.deployed.address

    def call(self, function: str, *args, sender: int = ALICE,
             value: int = 0):
        fn = self.artifact.abi.function(function)
        tx = Transaction(sender=sender, to=self.address, value=value,
                         data=encode_call(fn, list(args)))
        return self.chain.apply(tx)

    def storage(self, slot: int) -> int:
        return self.chain.world.get_storage(self.address, slot)[0]

    def storage_of(self, var_name: str) -> int:
        return self.storage(self.artifact.layout.slot_of(var_name))


@pytest.fixture
def deploy(chain):
    def _deploy(source_or_artifact, sender: int = ALICE, value: int = 0,
                ctor_args: bytes = b""):
        artifact = source_or_artifact
        if isinstance(artifact, str):
            artifact = compile_source(artifact)
        return ContractHandle(chain, artifact, sender=sender, value=value,
                              ctor_args=ctor_args)
    return _deploy
