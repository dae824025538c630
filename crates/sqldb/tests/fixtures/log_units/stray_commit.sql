-- perfbase embedded database dump
CREATE TABLE t (a INTEGER, s TEXT);
INSERT INTO t VALUES (1, 'one'), (2, 'two');
