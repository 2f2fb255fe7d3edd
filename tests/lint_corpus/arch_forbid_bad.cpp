// lint-tree
// lint-expect: LAYER-FORBIDDEN@11 LAYER-FORBIDDEN@14
// lint-file: src/ilp/revised_simplex.h
#pragma once
struct Spx {};
// lint-file: src/ilp/wrap.h
#pragma once
#include "ilp/revised_simplex.h"
struct Wrap { Spx s; };
// lint-file: src/core/direct.cpp
#include "ilp/revised_simplex.h"
static Spx* gDirect = nullptr;
// lint-file: src/core/indirect.cpp
#include "ilp/wrap.h"
static Wrap* gIndirect = nullptr;
