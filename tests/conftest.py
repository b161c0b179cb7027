import pytest

from fullflow.figures import figure_network


@pytest.fixture(scope="session")
def fig1():
    return figure_network("fig1")


@pytest.fixture(scope="session")
def fig2():
    return figure_network("fig2")


@pytest.fixture(scope="session")
def fig3():
    return figure_network("fig3")


@pytest.fixture(scope="session")
def fig4():
    return figure_network("fig4")


@pytest.fixture(scope="session")
def fig5():
    return figure_network("fig5")


@pytest.fixture(scope="session")
def fig6():
    return figure_network("fig6")
